package numa

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// SetMapMinBytes moves both mapping thresholds, of an array and of a
// machine's cache tags, for the rest of the test.
func SetMapMinBytes(t testing.TB, n uintptr) {
	old, oldTags := mapMinBytes, tagMapMinBytes
	mapMinBytes, tagMapMinBytes = n, int(n)
	t.Cleanup(func() { mapMinBytes, tagMapMinBytes = old, oldTags })
}

// SetRefModel routes every charge and merge through the reference model
// (ref.go) for the rest of the test. No simulation may be running.
func SetRefModel(t testing.TB) {
	refModel = true
	t.Cleanup(func() { refModel = false })
}

// FootprintCounts is what CountFootprints counts of ChargeLoop's calls with
// an index stream: all of them, those the footprint rule charged, those the
// memo answered, and the distinct memo keys among them.
type FootprintCounts struct {
	Calls, Rule, Hits atomic.Int64

	mu   sync.Mutex
	keys map[fpKey]bool
}

// Keys is the number of distinct memo keys the counted calls had.
func (fc *FootprintCounts) Keys() int64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return int64(len(fc.keys))
}

func (fc *FootprintCounts) tally(key fpKey, hit, took bool) {
	fc.Calls.Add(1)
	if took {
		fc.Rule.Add(1)
	}
	if hit {
		fc.Hits.Add(1)
	}
	fc.mu.Lock()
	fc.keys[key] = true
	fc.mu.Unlock()
}

// countFootprints starts counting and returns the counts and the function
// that stops.
func countFootprints() (*FootprintCounts, func()) {
	fc := &FootprintCounts{keys: map[fpKey]bool{}}
	footprintTally = fc.tally
	return fc, func() { footprintTally = nil }
}

// CountFootprints counts, for the rest of the test, the ChargeLoop calls with
// an index stream.
func CountFootprints(t testing.TB) *FootprintCounts {
	fc, stop := countFootprints()
	t.Cleanup(stop)
	return fc
}

// AuditFootprints finds anew, for the rest of the test, the footprint of every
// ChargeLoop call the memo answers, and fails the test if the decision or the
// events differ from the remembered ones. It returns how many calls it
// audited.
func AuditFootprints(t testing.TB) *atomic.Int64 {
	audits := auditFootprints(func(memo, fresh footprint) {
		t.Errorf("the memo remembers the footprint %+v, the call has %+v", memo, fresh)
	})
	t.Cleanup(func() { footprintAudit = nil })
	return audits
}

// ForgetFootprints empties sp's footprint memo, so that its next ChargeLoop
// call of index streams finds its footprint anew.
func ForgetFootprints(sp *Space) { clear(sp.fpMemo) }

// auditFootprints hands every remembered footprint that differs from the one
// found anew to differ, and counts the audited calls.
func auditFootprints(differ func(memo, fresh footprint)) *atomic.Int64 {
	audits := new(atomic.Int64)
	footprintAudit = func(memo, fresh footprint) {
		audits.Add(1)
		if memo.took != fresh.took || !slices.Equal(memo.events, fresh.events) {
			differ(memo, fresh)
		}
	}
	return audits
}

// LoadCounts is what CountLoadCharges counts of the ChargeLoads calls that
// pass the geometry checks: all of them, those the rule took, and per n how
// many found at most n lines in every cache set and exactly n in some (n ≤ 7).
type LoadCounts struct {
	Calls, Rule atomic.Int64
	Fullest     [8]atomic.Int64
}

// CountLoadCharges counts, for the rest of the test, the load footprint
// charges.
func CountLoadCharges(t testing.TB) *LoadCounts {
	lc := new(LoadCounts)
	loadsTally = func(took bool, fullest int) {
		lc.Calls.Add(1)
		if took {
			lc.Rule.Add(1)
		}
		lc.Fullest[fullest].Add(1)
	}
	t.Cleanup(func() { loadsTally = nil })
	return lc
}

// SameSetsAs skips address space until an array as long as like, allocated in
// sp next, falls line for line in the cache sets of like.
func SameSetsAs[T any](sp *Space, like *Array[T]) { sameSetsAs(sp, like) }

// LiveMappings is the number of mappings numa has made and not yet returned,
// over all spaces.
func LiveMappings() int64 { return liveMaps.Load() }

// AwaitNoMappings collects until every mapping is returned — the cleanups of
// abandoned spaces run some time after the collection that found them — and
// fails the test if some never are.
func AwaitNoMappings(t testing.TB) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); LiveMappings() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d mappings still live after repeated collections", LiveMappings())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// CountMappings counts, for the rest of the test, the mappings the kernel
// grants.
func CountMappings(t testing.TB) *atomic.Int64 {
	made := new(atomic.Int64)
	old := mapBytes
	mapBytes = func(n int) ([]byte, error) {
		mem, err := old(n)
		if err == nil {
			made.Add(1)
		}
		return mem, err
	}
	t.Cleanup(func() { mapBytes = old })
	return made
}

// DirectoryAudits is how many merges the package's TestMain has audited with
// checkDirectory so far (dir_test.go).
func DirectoryAudits() int64 { return directoryAudits.Load() }
