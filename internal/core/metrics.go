// Package core is the comparison framework of the study: the Model
// enumeration, the Metrics every application run produces, and the report
// generators that turn runs into the paper's tables and figures.
package core

import (
	"fmt"
	"strings"

	"o2k/internal/sim"
)

// Model identifies one of the three programming models under comparison.
type Model int

// The three programming models of the paper's title.
const (
	MP Model = iota // two-sided message passing (MPI style)
	SHMEM
	SAS // cache-coherent shared address space
	NumModels

	// Hybrid is the extension model beyond the paper's three: message
	// passing between node boards, shared address space within a node —
	// the direction the authors' follow-up work on clusters of SMPs took.
	// It is not part of AllModels; experiments opt into it explicitly.
	Hybrid Model = NumModels
)

// String returns the model's display name.
func (m Model) String() string {
	switch m {
	case MP:
		return "MP"
	case SHMEM:
		return "SHMEM"
	case SAS:
		return "CC-SAS"
	case Hybrid:
		return "MP+SAS"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// AllModels lists the models in presentation order.
func AllModels() []Model { return []Model{MP, SHMEM, SAS} }

// ParseModel resolves the spelling of a model on a command line or in a URL
// (case-insensitive): mp, shmem, sas (also cc-sas, ccsas), and mp+sas (also
// mp-sas) for the Hybrid extension.
func ParseModel(s string) (Model, bool) {
	switch strings.ToLower(s) {
	case "mp":
		return MP, true
	case "shmem":
		return SHMEM, true
	case "sas", "cc-sas", "ccsas":
		return SAS, true
	case "mp+sas", "mp-sas":
		return Hybrid, true
	}
	return 0, false
}

// Metrics is the outcome of one application run on one machine
// configuration under one programming model.
type Metrics struct {
	Model Model
	Procs int

	Total     sim.Time                // simulated wall-clock (max over procs)
	PhaseMax  [sim.NumPhases]sim.Time // per-phase maximum over procs
	Counters  sim.Counters            // summed over procs
	DataBytes int                     // model-visible field memory (analytic)

	Checksum    float64 // deterministic result digest; equal across models
	MovedWeight float64 // weight the PLUM remap moved, summed over cycles; 0 without a remap
}

// String summarizes the run in one line: model, processors, time, and the
// dominant phase.
func (m Metrics) String() string {
	best := sim.Phase(0)
	for ph := sim.Phase(1); ph < sim.NumPhases; ph++ {
		if m.PhaseMax[ph] > m.PhaseMax[best] {
			best = ph
		}
	}
	return fmt.Sprintf("%v P=%d total=%v dominant=%s(%v)",
		m.Model, m.Procs, m.Total, best, m.PhaseMax[best])
}

// Speedup computes base.Total / m.Total, the figure-of-merit for the
// scalability plots (base is the same model at P=1 unless stated otherwise).
func (m Metrics) Speedup(base Metrics) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(base.Total) / float64(m.Total)
}

// PhaseFraction returns the share of critical-path time spent in ph.
func (m Metrics) PhaseFraction(ph sim.Phase) float64 {
	var sum sim.Time
	for _, t := range m.PhaseMax {
		sum += t
	}
	if sum == 0 {
		return 0
	}
	return float64(m.PhaseMax[ph]) / float64(sum)
}

// Table is a simple fixed-column text table, the output format of every
// experiment (rows print aligned, suitable for EXPERIMENTS.md).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// F formats a float with 3 significant decimals for table cells.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// FT formats a virtual time for table cells.
func FT(t sim.Time) string { return t.String() }
