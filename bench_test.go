package o2k_test

// One benchmark per table/figure of the (reconstructed) evaluation — see
// DESIGN.md §5. Each benchmark regenerates its artifact through the
// experiments registry and prints it once, so
//
//	go test -bench=. -benchmem
//
// both measures the harness and emits every table the paper reports.
// Figures at full scale sweep P = 1..64; set -short for the quick variant.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"o2k/internal/experiments"
	"o2k/internal/runner"
)

var printOnce sync.Map

func opts(b *testing.B) experiments.Opts {
	if testing.Short() {
		return experiments.QuickOpts()
	}
	return experiments.DefaultOpts()
}

func runExperiment(b *testing.B, name string) {
	o := opts(b)
	var out string
	for i := 0; i < b.N; i++ {
		tables, err := experiments.RunOnCtx(context.Background(), runner.New(0), name, o)
		if err != nil {
			b.Fatal(err)
		}
		out = tables[0].String()
	}
	if _, dup := printOnce.LoadOrStore(name, true); !dup {
		fmt.Printf("\n%s\n", out)
	}
}

func BenchmarkTable1Workloads(b *testing.B) { runExperiment(b, "workloads") }

func BenchmarkFig2MeshSpeedup(b *testing.B) { runExperiment(b, "mesh-speedup") }

func BenchmarkFig3NBodySpeedup(b *testing.B) { runExperiment(b, "nbody-speedup") }

func BenchmarkFig4PhaseBreakdown(b *testing.B) { runExperiment(b, "breakdown") }

func BenchmarkTable5ProgrammingEffort(b *testing.B) { runExperiment(b, "loc") }

func BenchmarkTable6Memory(b *testing.B) { runExperiment(b, "memory") }

func BenchmarkFig7LatencySweep(b *testing.B) { runExperiment(b, "latency-sweep") }

func BenchmarkFig8LoadBalance(b *testing.B) { runExperiment(b, "loadbalance") }

func BenchmarkTable9Traffic(b *testing.B) { runExperiment(b, "traffic") }

func BenchmarkFig10RegularControl(b *testing.B) { runExperiment(b, "regular-control") }

func BenchmarkFig11PageMigration(b *testing.B) { runExperiment(b, "page-migration") }

func BenchmarkFig12MachineSweep(b *testing.B) { runExperiment(b, "machine-sweep") }

func BenchmarkFig13Hybrid(b *testing.B) { runExperiment(b, "hybrid") }

func BenchmarkFig14ConjugateGradient(b *testing.B) { runExperiment(b, "cg") }

// BenchmarkAllShared measures the whole suite on one shared cell engine —
// the `o2kbench -exp all` path, where the parallel runner simulates each
// unique (app, model, machine, workload, P) cell once and every experiment
// assembles from the shared cache. Contrast with the sum of the
// per-artifact benchmarks above, which each pay for their own cells.
func BenchmarkAllShared(b *testing.B) {
	o := opts(b)
	for i := 0; i < b.N; i++ {
		experiments.RunAllCtx(context.Background(), runner.New(0), o)
	}
}
