package runner

import (
	"context"
	"strconv"
	"testing"

	"o2k/internal/core"
)

// The engine's fixed per-request costs, one benchmark per ledger row that
// bench/ prices: BenchmarkMemoHit is runner.memo_hit_ns,
// BenchmarkMemoHitHooked is runner.memo_hit_hooked_ns (tracing on costs one
// hook call per event, off one nil check), and BenchmarkMissOverhead is
// runner.miss_overhead_us, Task Bench's overhead term. Each reports its row's
// unit per request.

var benchValue = Ready(func(context.Context) (any, error) { return core.Metrics{}, nil })

func benchMemoHit(b *testing.B, ctx context.Context) {
	e := New(1)
	req := Cell{Key: core.CellKey("bench/memo"), Label: "memo", Prepare: benchValue}
	if _, err := e.DoCell(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DoCell(ctx, req)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/request")
}

func BenchmarkMemoHit(b *testing.B) { benchMemoHit(b, context.Background()) }

func BenchmarkMemoHitHooked(b *testing.B) {
	benchMemoHit(b, WithRequestHook(context.Background(), func(Event) {}))
}

// BenchmarkMissOverhead requests cells that miss the memo and compute
// nothing: creation, the detached publisher, a worker slot and publication.
// Every missChunk requests it starts a fresh engine off the clock, so the
// memo map stays the size the bench/ row sees.
func BenchmarkMissOverhead(b *testing.B) {
	const missChunk = 2000
	keys := make([]string, missChunk)
	for i := range keys {
		keys[i] = core.CellKey("bench/miss", strconv.Itoa(i))
	}
	ctx := context.Background()
	var e *Engine
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%missChunk == 0 {
			b.StopTimer()
			e = New(1)
			b.StartTimer()
		}
		e.DoCell(ctx, Cell{Key: keys[i%missChunk], Label: "miss", Codec: MetricsCodec, Prepare: benchValue})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/request")
}
