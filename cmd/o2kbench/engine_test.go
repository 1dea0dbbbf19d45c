package main

import (
	"flag"
	"reflect"
	"testing"
	"time"
)

// TestEngineFlagsArgvRoundTrip is the worker-argv contract: every engine
// flag a parent parsed reaches its fleet children. The fleet's argv is
// derived from engineFlags.register, so the round trip engineFlags → argv →
// fresh FlagSet must reproduce the value exactly — and the test itself must
// cover every field, so a flag added later cannot be dropped silently.
func TestEngineFlagsArgvRoundTrip(t *testing.T) {
	want := engineFlags{
		cache:   "/tmp/o2k-cache",
		leases:  true,
		jobs:    3,
		timeout: 90 * time.Second,
	}
	wv := reflect.ValueOf(want)
	for i := 0; i < wv.NumField(); i++ {
		if wv.Field(i).IsZero() {
			t.Fatalf("field %s is at its default: give it a distinct value so the round trip covers it", wv.Type().Field(i).Name)
		}
	}

	var got engineFlags
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	got.register(fs)
	if err := fs.Parse(want.argv()); err != nil {
		t.Fatalf("a worker cannot parse the argv its parent renders: %v", err)
	}
	if got != want {
		t.Fatalf("argv round trip lost a flag:\n got  %+v\n want %+v\n argv %q", got, want, want.argv())
	}
	registered := 0
	fs.VisitAll(func(*flag.Flag) { registered++ })
	if registered != wv.NumField() {
		t.Fatalf("%d flags registered for %d engineFlags fields", registered, wv.NumField())
	}
}
