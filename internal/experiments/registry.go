package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// Spec declares one experiment: its canonical semantic name, the paper-
// artifact aliases it also answers to, a one-line description, and the
// builder that assembles its table from simulation cells on a shared
// engine. The index is the literal in experiments.go; cmd/o2kbench and the
// All driver discover it through List and Lookup — there is no
// hand-maintained name switch anywhere.
type Spec struct {
	Name    string   // canonical semantic name, e.g. "mesh-speedup"
	Aliases []string // paper names, e.g. "fig2"
	Title   string   // one-line description for -list
	// Build assembles the experiment's table, requesting every simulation
	// through e so unique cells are computed once and shared. ctx scopes the
	// request: the CLI passes its signal context, the experiment server a
	// per-HTTP-request context (cancelling it aborts only this request's
	// uncommitted cells — DESIGN.md §5.11).
	Build func(ctx context.Context, e *runner.Engine, o Opts) *core.Table
	// Standalone experiments (the verdict checker) are excluded from "all".
	Standalone bool
}

// The index: specs in paper order, and every accepted name — canonical names
// and aliases, lower-cased — to its position. Both are filled during package
// initialization and read-only afterwards, so they need no lock.
var (
	registry []Spec
	byName   = make(map[string]int)
)

// Register appends a spec to the index, from an init function only. Name,
// Title, and Build are required; names and aliases are case-insensitive and
// must be unique across the index. It panics on a bad spec: a broken table
// of contents should stop the program. The product's one caller is the init
// of experiments.go, over its literal; what keeps it exported is
// internal/server's tests, which add a Standalone experiment whose cell
// blocks on a gate.
func Register(s Spec) {
	if s.Name == "" || s.Title == "" || s.Build == nil {
		panic(fmt.Sprintf("experiments: incomplete spec %+v", s))
	}
	for _, n := range append([]string{s.Name}, s.Aliases...) {
		n = strings.ToLower(n)
		if n == "all" {
			panic(`experiments: "all" is reserved`)
		}
		if _, dup := byName[n]; dup {
			panic(fmt.Sprintf("experiments: duplicate experiment name %q", n))
		}
		byName[n] = len(registry)
	}
	registry = append(registry, s)
}

// List returns every spec in index (paper) order.
func List() []Spec { return append([]Spec(nil), registry...) }

// Names returns every accepted experiment name — canonical names and
// aliases — sorted, for error messages.
func Names() []string {
	ns := make([]string, 0, len(byName))
	for n := range byName {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Lookup resolves an experiment by canonical name or alias
// (case-insensitive).
func Lookup(name string) (Spec, bool) {
	i, ok := byName[strings.ToLower(name)]
	if !ok {
		return Spec{}, false
	}
	return registry[i], true
}

// Request is what every front end asks for: the CLI's -exp/-quick/-procs
// flags and the POST /v1/experiments body are these same three fields, so a
// request and the equivalent flag set select identical cells. The zero value
// means the defaults: every experiment, full workloads, the paper sweep.
type Request struct {
	Exp   string `json:"exp"`   // registry name, alias, or "all" (also "")
	Quick bool   `json:"quick"` // reduced workloads and processor counts
	Procs string `json:"procs"` // "1,4,16" or a preset name; "" keeps the suite default
}

// Opts validates the request and resolves its experiment scale. Every error
// is a usage error: CLI exit status 2, HTTP 400.
func (r Request) Opts() (Opts, error) {
	if _, _, err := resolve(r.Exp); err != nil {
		return Opts{}, err
	}
	o := DefaultOpts()
	if r.Quick {
		o = QuickOpts()
	}
	if r.Procs != "" {
		ps, err := ParseProcs(r.Procs)
		if err != nil {
			return Opts{}, err
		}
		o.Procs = ps
	}
	return o, nil
}

// resolve maps an experiment name to its spec; all is true for "all" and
// for "", a request's default. The error names every accepted experiment.
func resolve(name string) (s Spec, all bool, err error) {
	if name == "" || strings.EqualFold(name, "all") {
		return Spec{}, true, nil
	}
	s, ok := Lookup(name)
	if !ok {
		return Spec{}, false, fmt.Errorf("unknown experiment %q (want all, %s)", name, strings.Join(Names(), ", "))
	}
	return s, false, nil
}

// Render joins a table list into the exact bytes o2kbench prints on stdout:
// tables separated by one blank line, each rendered by core.Table.String.
// The CLI prints it and the experiment server returns it, so the two
// outputs are the same bytes by construction.
func Render(tables []*core.Table) string {
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// RunOnCtx runs the named experiment on e and returns its tables. The name
// "all" produces every non-standalone experiment in index order, built
// concurrently over the shared cell cache. Builders receive ctx and thread it
// into every cell request, so cancelling ctx abandons this invocation
// without disturbing other users of the shared engine.
func RunOnCtx(ctx context.Context, e *runner.Engine, name string, o Opts) ([]*core.Table, error) {
	s, all, err := resolve(name)
	if err != nil {
		return nil, err
	}
	if all {
		return RunAllCtx(ctx, e, o), nil
	}
	return []*core.Table{buildSafe(ctx, s, e, o)}, nil
}

// buildSafe runs one builder with panic recovery: cell failures are already
// values (runner.Res), so a builder panic is a bug in the assembly code
// itself — degrade it to a one-row error table rather than killing every
// other experiment of the run.
func buildSafe(ctx context.Context, s Spec, e *runner.Engine, o Opts) (t *core.Table) {
	defer func() {
		if r := recover(); r != nil {
			t = &core.Table{
				Title:  s.Title,
				Header: []string{"error"},
				Rows:   [][]string{{fmt.Sprintf("FAILED(builder panic: %v)", r)}},
			}
		}
	}()
	return s.Build(ctx, e, o)
}

// RunAllCtx builds every non-standalone experiment on the shared engine.
// Builders run concurrently — the engine's single-flight cache ensures each
// unique cell is still simulated exactly once — but results are returned in
// registration order, so the output is byte-identical at any parallelism.
func RunAllCtx(ctx context.Context, e *runner.Engine, o Opts) []*core.Table {
	var specs []Spec
	for _, s := range List() {
		if !s.Standalone {
			specs = append(specs, s)
		}
	}
	return each(e, len(specs), func(i int) *core.Table { return buildSafe(ctx, specs[i], e, o) })
}
