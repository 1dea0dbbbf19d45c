package obs

import (
	"sync"
	"testing"
	"time"

	"o2k/internal/runner"
)

func TestAddRunnerTrackLanePacking(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	events := []runner.Event{
		// a and b overlap → two lanes; c starts after a ends → reuses lane 0.
		{Kind: runner.EventCompute, Key: "a", Label: "cell a", Start: ms(0), Dur: 10 * time.Millisecond},
		{Kind: runner.EventCompute, Key: "b", Label: "cell b", Start: ms(5), Dur: 10 * time.Millisecond},
		{Kind: runner.EventDiskHit, Key: "c", Label: "cell c", Start: ms(12), Dur: 2 * time.Millisecond},
		{Kind: runner.EventMemoHit, Key: "a", Label: "cell a", Start: ms(20)},
	}
	b := NewBuilder()
	b.AddRunnerTrack(events)
	tr := b.Trace()

	spans := tr.Spans(0)
	if len(spans) != 3 {
		t.Fatalf("got %d host spans, want 3: %+v", len(spans), spans)
	}
	byKey := map[string]ChromeEvent{}
	for _, s := range spans {
		byKey[s.Args["key"].(string)] = s
	}
	if byKey["a"].Tid != 0 || byKey["b"].Tid != 1 || byKey["c"].Tid != 0 {
		t.Fatalf("lane assignment a/b/c = %d/%d/%d, want 0/1/0",
			byKey["a"].Tid, byKey["b"].Tid, byKey["c"].Tid)
	}
	// Wall time is normalized: the earliest event sits at ts 0, in µs.
	if byKey["a"].Ts != 0 || byKey["b"].Ts != 5000 || byKey["a"].Dur != 10000 {
		t.Fatalf("normalized timestamps wrong: a.ts=%v b.ts=%v a.dur=%v",
			byKey["a"].Ts, byKey["b"].Ts, byKey["a"].Dur)
	}

	// The memo-hit instant lives on the lane above both span lanes.
	var instants []ChromeEvent
	for _, ev := range tr.Events {
		if ev.Ph == "i" {
			instants = append(instants, ev)
		}
	}
	if len(instants) != 1 || instants[0].Tid != 2 || instants[0].Scope != "t" {
		t.Fatalf("instants = %+v, want one memo-hit on tid 2 with thread scope", instants)
	}
}

func TestAddRunnerTrackEmptyIsNoop(t *testing.T) {
	b := NewBuilder()
	b.AddRunnerTrack(nil)
	if len(b.Trace().Events) != 0 {
		t.Fatalf("empty event set produced %d events", len(b.Trace().Events))
	}
}

func TestRunnerArgsDetail(t *testing.T) {
	args := runnerArgs(runner.Event{Kind: runner.EventCompute, Key: "k", Err: "boom"})
	if args["kind"] != "compute" || args["key"] != "k" || args["err"] != "boom" {
		t.Fatalf("runnerArgs = %v", args)
	}
	args = runnerArgs(runner.Event{Kind: runner.EventMemoHit, Key: "k"})
	if _, ok := args["err"]; ok {
		t.Fatal("err rendered for a successful event")
	}
}

func TestCollectorConcurrentHook(t *testing.T) {
	col := &Collector{}
	hook := col.Hook()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				hook(runner.Event{Kind: runner.EventMemoHit, Key: "k"})
			}
		}()
	}
	wg.Wait()
	if col.Len() != 800 {
		t.Fatalf("collected %d events, want 800", col.Len())
	}
	snap := col.Events()
	hook(runner.Event{Kind: runner.EventDedup})
	if len(snap) != 800 {
		t.Fatal("Events() snapshot aliases the live buffer")
	}
}
