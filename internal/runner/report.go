package runner

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"o2k/internal/core"
	"o2k/internal/runner/lease"
)

// CellStat is one unique cell's execution record.
type CellStat struct {
	Label    string        `json:"label"`               // human-readable cell description
	Key      string        `json:"key"`                 // content hash (core.CellKey)
	Wall     time.Duration `json:"wall_ns"`             // wall time paid by the owner, waits for its dependencies and for a worker slot included
	Compute  time.Duration `json:"compute_ns"`          // the part of Wall its compute held a worker slot: what the cell itself cost
	Hits     int64         `json:"hits"`                // requests served from the completed cache entry
	Dedups   int64         `json:"dedups"`              // requests that shared the in-flight execution
	Err      string        `json:"err,omitempty"`       // the cell's failure, empty on success
	InFlight bool          `json:"in_flight,omitempty"` // still computing at snapshot time
	FromDisk bool          `json:"from_disk,omitempty"` // served from the persistent cache
	Kind     string        `json:"kind,omitempty"`      // codec classification ("metrics", "plan", "characteristics")
	Stack    string        `json:"stack,omitempty"`     // the panicking code's stack, when the failure is a panic
}

// Report is the engine's execution summary: how many cell requests the
// experiments issued, how many unique simulations were actually paid for,
// and where the wall time went. It is host-timing data — print it to stderr
// (as o2kbench -runreport does) so table output stays byte-stable.
type Report struct {
	Jobs         int           `json:"jobs"`
	Unique       int           `json:"unique_cells"`
	Requests     int64         `json:"requests"`
	Hits         int64         `json:"hits"`
	Dedups       int64         `json:"dedups"`
	Failures     int           `json:"failures"`        // completed cells that ended in error
	CellWall     time.Duration `json:"cell_wall_ns"`    // summed owner wall time of all unique cells
	CellCompute  time.Duration `json:"cell_compute_ns"` // summed slot-held time of all unique cells; at most jobs × the run's wall time
	DiskHits     int64         `json:"disk_hits"`       // unique cells restored from the persistent cache
	PlanCells    int           `json:"plan_cells"`      // completed plan-tier cells (structures + plans)
	PlanDiskHits int64         `json:"plan_disk_hits"`  // plan-tier cells restored from the persistent cache
	Disk         *DiskStats    `json:"disk,omitempty"`  // persistent-cache telemetry, nil when memory-only
	Lease        *lease.Stats  `json:"lease,omitempty"` // cross-process single-flight telemetry, nil when solo
	Cells        []CellStat    `json:"cells"`           // sorted by compute time, then wall time, descending
}

// Report snapshots the engine's statistics. It is safe to call while cells
// are still computing: per-cell result fields (wall time, error)
// are written by the owner goroutine and published by the close of the
// cell's done channel, so the snapshot reads them only for completed cells —
// an in-flight cell contributes its label and request counters and is marked
// InFlight. Call Report after the experiments have finished for exact
// numbers.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	cells := make([]*cell, 0, len(e.cells))
	for _, c := range e.cells {
		cells = append(cells, c)
	}
	e.mu.Unlock()
	// Creation order first, so the stable sort below breaks ties the same way
	// on every run.
	sort.Slice(cells, func(i, j int) bool { return cells[i].seq < cells[j].seq })

	r := &Report{Jobs: e.jobs, Unique: len(cells)}
	if e.cache != nil {
		r.Disk = diskStats(e.cache.Counters())
	}
	if e.leases != nil {
		ls := e.leases.Stats()
		r.Lease = &ls
	}
	for _, c := range cells {
		s := CellStat{Label: c.label, Key: c.key, Kind: c.kind, Hits: c.hits.Load(), Dedups: c.dedup.Load()}
		select {
		case <-c.done:
			s.Wall, s.Compute, s.FromDisk = c.wall, c.compute, c.fromDisk
			if s.FromDisk {
				r.DiskHits++
				if s.Kind == "plan" {
					r.PlanDiskHits++
				}
			}
			if s.Kind == "plan" {
				r.PlanCells++
			}
			if c.err != nil {
				s.Err = c.err.Error()
				var pe *PanicError
				if errors.As(c.err, &pe) {
					s.Stack = string(pe.Stack)
				}
				r.Failures++
			}
		default:
			s.InFlight = true
		}
		r.Hits += s.Hits
		r.Dedups += s.Dedups
		r.CellWall += s.Wall
		r.CellCompute += s.Compute
		r.Cells = append(r.Cells, s)
	}
	r.Requests = int64(r.Unique) + r.Hits + r.Dedups
	sort.SliceStable(r.Cells, func(i, j int) bool {
		a, b := &r.Cells[i], &r.Cells[j]
		if a.Compute != b.Compute {
			return a.Compute > b.Compute
		}
		return a.Wall > b.Wall
	})
	return r
}

// HitRate is the fraction of cell requests served without a fresh
// simulation — completed-cache hits plus in-flight dedups over all
// requests. The acceptance bar for a shared `-exp all` run is ≥ 0.30.
func (r *Report) HitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits+r.Dedups) / float64(r.Requests)
}

// Table renders the report: a summary block followed by every unique cell,
// costliest first. compute is the time a cell's compute held a worker slot;
// wall adds the owner's waits — for dependencies and, at a small -jobs, for
// the slot — so only the compute column sums to something the run paid.
// Failed cells carry their FAILED(<reason>) annotation in the wall column.
func (r *Report) Table() *core.Table {
	t := &core.Table{
		Title:  "Run report — simulation cells",
		Header: []string{"cell", "compute", "wall", "hits", "dedups"},
	}
	summary := func(name, value string) { t.AddRow(name, value, "", "", "") }
	summary("jobs", fmt.Sprintf("%d", r.Jobs))
	summary("requests", fmt.Sprintf("%d", r.Requests))
	t.AddRow(fmt.Sprintf("unique cells (misses) %d", r.Unique),
		r.CellCompute.Round(time.Millisecond).String(),
		r.CellWall.Round(time.Millisecond).String(),
		fmt.Sprintf("%d", r.Hits), fmt.Sprintf("%d", r.Dedups))
	summary("cache hit rate", fmt.Sprintf("%.1f%%", 100*r.HitRate()))
	if r.Disk != nil {
		summary("disk cache", r.Disk.String())
		summary("cells from disk", fmt.Sprintf("%d", r.DiskHits))
		// A pass whose run cells were all known instantiates no plan cell.
		if r.PlanCells > 0 {
			summary("plan cells from disk", fmt.Sprintf("%d of %d", r.PlanDiskHits, r.PlanCells))
		}
	}
	if r.Lease != nil {
		summary("leases", fmt.Sprintf("acquired=%d stolen=%d lost=%d degraded=%d",
			r.Lease.Acquired, r.Lease.Stolen, r.Lease.Lost, r.Lease.Degraded))
	}
	if r.Failures > 0 {
		summary("failed cells", fmt.Sprintf("%d", r.Failures))
	}
	for _, c := range r.Cells {
		wall := c.Wall.Round(10 * time.Microsecond).String()
		switch {
		case c.InFlight:
			wall = "(in flight)"
		case c.Err != "":
			wall = fmt.Sprintf("%s FAILED(%s)", wall, c.Err)
		case c.FromDisk:
			wall += " (disk)"
		}
		t.AddRow(c.Label, c.Compute.Round(10*time.Microsecond).String(), wall, fmt.Sprintf("%d", c.Hits), fmt.Sprintf("%d", c.Dedups))
	}
	return t
}
