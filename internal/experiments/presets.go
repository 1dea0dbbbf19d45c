package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"o2k/internal/machine"
)

// Processor-count scaling presets for o2kbench's -procs flag. The paper's
// sweep stops at 64 because the studied Origin2000 did; the one-thread
// scheduler and lazy cache-tag allocation make larger gangs practical, and
// these presets name the standard sweeps so CI jobs and scaling runs don't
// hand-maintain doubling lists. scale1024 is deliberately coarser (factor-4
// steps): the point of the largest preset is the memory/scheduling envelope
// at the top end, not a dense curve.
var procsPresets = map[string][]int{
	"paper":     {1, 2, 4, 8, 16, 32, 64},
	"scale128":  {1, 2, 4, 8, 16, 32, 64, 128},
	"scale256":  {1, 2, 4, 8, 16, 32, 64, 128, 256},
	"scale1024": {1, 4, 16, 64, 256, 1024},
}

// ProcsPreset resolves a named processor sweep; ok is false for unknown
// names. The returned slice is a copy.
func ProcsPreset(name string) (ps []int, ok bool) {
	p, ok := procsPresets[name]
	return append([]int(nil), p...), ok
}

// ProcsPresetNames returns the preset names, sorted, for flag help and
// error messages.
func ProcsPresetNames() []string {
	ns := make([]string, 0, len(procsPresets))
	for n := range procsPresets {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// ParseProcs resolves a -procs style value — a preset name or an explicit
// comma-separated processor-count list — shared by the CLI flag and the
// experiment server's request field.
func ParseProcs(s string) ([]int, error) {
	if ps, ok := ProcsPreset(s); ok {
		return ps, nil
	}
	var ps []int
	for _, f := range strings.Split(s, ",") {
		v, err := ParseProcCount(f)
		if err != nil {
			return nil, fmt.Errorf("%v; presets: %s", err, strings.Join(ProcsPresetNames(), ", "))
		}
		ps = append(ps, v)
	}
	return ps, nil
}

// ParseProcCount parses one processor count, which must lie in
// [1, machine.MaxProcs]: a larger gang would only be refused by
// machine.MustNew after its plans were built. ParseProcs and the server's
// cell endpoint both screen their counts here, before any work is admitted.
func ParseProcCount(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || v < 1 || v > machine.MaxProcs {
		return 0, fmt.Errorf("bad processor count %q (counts are integers from 1 to %d)", s, machine.MaxProcs)
	}
	return v, nil
}
