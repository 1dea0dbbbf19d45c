package experiments

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// smallCellsFile pins the complete Metrics — total, per-phase maximum over
// procs, every counter, data size, checksum, moved weight — of every app
// under every model it runs at P = 1, 8 and 64 on the Small workloads, one
// lossless core.EncodeMetrics document per line. It was recorded while sim
// still had two schedulers, the event scheduler that remains and a gang of
// one goroutine per processor, and the two agreed on every cell: a host-side
// change to sim, numa or a model runtime that moves one simulated number
// names the cell and the field here.
//
// After an INTENTIONAL model change (one that also moves lines of
// testdata/digests.txt), delete the file and run the test once: it records
// the new cells and fails, and passes from the next run on.
const smallCellsFile = "testdata/small_cells.json"

func TestSmallCellsPinned(t *testing.T) {
	var pinned map[string]json.RawMessage
	data, err := os.ReadFile(smallCellsFile)
	record := os.IsNotExist(err)
	if !record {
		if err == nil {
			err = json.Unmarshal(data, &pinned)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	o, e := QuickOpts(), runner.New(0)
	var lines []string
	for _, a := range apps {
		for _, m := range a.models {
			t.Run(a.name+"/"+m.String(), func(t *testing.T) {
				for _, procs := range []int{1, 8, 64} {
					if m == core.Hybrid && procs == 1 {
						continue // the hybrid's unit is a two-processor node
					}
					t.Run(fmt.Sprintf("P=%d", procs), func(t *testing.T) {
						name := strings.TrimPrefix(t.Name(), "TestSmallCellsPinned/")
						res := a.Cell(bg, e, m, procs, o)
						if res.Err != nil {
							t.Fatal(res.Err)
						}
						if record {
							doc, err := core.EncodeMetrics(res.M)
							if err != nil {
								t.Fatal(err)
							}
							lines = append(lines, fmt.Sprintf("%q: %s", name, doc))
							return
						}
						want, err := core.DecodeMetrics(pinned[name])
						if err != nil {
							t.Fatalf("%s: %v", smallCellsFile, err)
						}
						if diff := diffMetrics(res.M, want); diff != "" {
							t.Errorf("a pinned cell moved:%s", diff)
						}
					})
				}
			})
		}
	}
	if record {
		slices.Sort(lines)
		if err := os.WriteFile(smallCellsFile, []byte("{\n"+strings.Join(lines, ",\n")+"\n}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d cells in %s; run again to check against them", len(lines), smallCellsFile)
	}
}

// diffMetrics names every field of got that differs from want.
func diffMetrics(got, want core.Metrics) string {
	var b strings.Builder
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			fmt.Fprintf(&b, "\n  %s: got %+v, pinned %+v", gv.Type().Field(i).Name, g, w)
		}
	}
	return b.String()
}

// pinnedZero names the numbers of a run that may read 0 in every pinned
// cell, each with the reason. The list holds at most one entry, and an entry
// whose number some cell now produces fails the test.
var pinnedZero = map[string]string{
	"Counters.LockOps": "no application takes a sas.Lock, so Table 9's lock-ops column is 0 in every row (ROADMAP item 3(f))",
}

// TestEveryPinnedNumberIsProduced reads the pinned cells, and runs nothing:
// every number a run reports — each counter, each phase slot of PhaseMax,
// DataBytes, Checksum, MovedWeight — must be nonzero in at
// least one of them. TestFieldsAreLive sees that a field is read; this sees
// that something writes it, so a counter nothing increments or a phase
// nothing charges cannot ride along in every record.
func TestEveryPinnedNumberIsProduced(t *testing.T) {
	if len(pinnedZero) > 1 {
		t.Fatalf("%d numbers are exempt, at most one may be", len(pinnedZero))
	}
	data, err := os.ReadFile(smallCellsFile)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]json.RawMessage
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			produced[path] = produced[path] || !v.IsZero()
		}
	}
	for name, doc := range pinned {
		m, err := core.DecodeMetrics(doc)
		if err != nil {
			t.Fatalf("%s: %s: %v", smallCellsFile, name, err)
		}
		walk("", reflect.ValueOf(m))
	}
	for _, path := range slices.Sorted(maps.Keys(produced)) {
		switch why := pinnedZero[path]; {
		case produced[path] && why != "":
			t.Errorf("%s is produced by a pinned cell now: drop its exemption", path)
		case !produced[path] && why == "":
			t.Errorf("%s is 0 in all %d pinned cells: nothing produces it", path, len(pinned))
		}
	}
	for path := range pinnedZero {
		if _, ok := produced[path]; !ok {
			t.Errorf("exempt number %s is not a number of core.Metrics", path)
		}
	}
}
