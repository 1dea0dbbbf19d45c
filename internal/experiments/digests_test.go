package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// digestsFile is the byte manifest of o2kbench's stdout, one line per
// (command, output section): the command in its CLI form, the section's key
// and the first 16 hex digits of the SHA-256 of its bytes, tab-separated. A
// section is one `## ` block, keyed by its title, except that the verdict
// table is split into its title and header (keyed by the title) and one
// section per row (keyed by its id); its rule line only restates the widest
// row's width and is not hashed. A change that moves bytes on purpose
// carries their lines in this file's diff. To pin one more command, add a
// line for it: the test then prints all of its sections.
const digestsFile = "testdata/digests.txt"

// TestDigests renders every command of digestsFile as o2kbench prints it
// (RunOnCtx, then Render), commands of one scale on one engine, and checks
// each section's digest. The large legs — full scale, and quick sweeps that
// reach 256 processors — run unless -short or -race, whose cost they
// multiply; the full-scale leg also checks what EXPERIMENTS.md quotes, and
// the full-scale suite's columns (checkConstantColumns).
func TestDigests(t *testing.T) {
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var cmds []string           // distinct commands, in file order
	of := map[string][]string{} // command -> its lines
	for _, line := range pinned {
		cmd, _, _ := strings.Cut(line, "\t")
		if of[cmd] == nil {
			cmds = append(cmds, cmd)
		}
		of[cmd] = append(of[cmd], line)
	}

	engines := map[bool]*runner.Engine{} // by Request.Quick
	var got, fullOuts []string
	for _, cmd := range cmds {
		var req Request
		fs := flag.NewFlagSet("o2kbench", flag.ContinueOnError)
		fs.StringVar(&req.Exp, "exp", "all", "")
		fs.BoolVar(&req.Quick, "quick", false, "")
		fs.StringVar(&req.Procs, "procs", "", "")
		if err := fs.Parse(strings.Fields(cmd)); err != nil || fs.NArg() > 0 {
			t.Fatalf("%s: bad command %q: %v", digestsFile, cmd, err)
		}
		o, err := req.Opts()
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		if (!req.Quick || slices.Max(o.Procs) >= 256) && (testing.Short() || raceEnabled) {
			t.Logf("skipped with -short or -race: %s", cmd)
			got = append(got, of[cmd]...)
			continue
		}
		if engines[req.Quick] == nil {
			engines[req.Quick] = runner.New(0)
		}
		tables, _, err := RunOnCtx(bg, engines[req.Quick], req.Exp, o)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		out := Render(tables)
		if !req.Quick {
			fullOuts = append(fullOuts, out)
			if req.Exp == "all" {
				checkConstantColumns(t, tables)
			}
		}
		got = append(got, digestLines(cmd, out)...)
	}

	if replacement := strings.Join(got, "\n") + "\n"; replacement != string(data) {
		var moved []string
		for _, line := range pinned {
			if !slices.Contains(got, line) {
				moved = append(moved, "- "+line)
			}
		}
		for _, line := range got {
			if !slices.Contains(pinned, line) {
				moved = append(moved, "+ "+line)
			}
		}
		fmt.Printf("%s, replacement:\n%s", digestsFile, replacement)
		t.Errorf("sections moved (- pinned, + now):\n%s\nIf that is intended, replace %s with the text printed above.",
			strings.Join(moved, "\n"), digestsFile)
	}

	if len(fullOuts) > 0 {
		doc, err := os.ReadFile(moduleRoot + "/EXPERIMENTS.md")
		if err != nil {
			t.Fatal(err)
		}
		blocks := strings.Split(string(doc), "```\n") // fenced blocks at odd indices
		for i := 1; i < len(blocks); i += 2 {
			if !slices.ContainsFunc(fullOuts, func(out string) bool {
				return strings.Contains("\n"+out, "\n"+blocks[i])
			}) {
				t.Errorf("EXPERIMENTS.md quotes a block that no full-scale command in %s prints:\n%s",
					digestsFile, blocks[i])
			}
		}
	}
}

// constantColumns is the allow-list of checkConstantColumns: columns of the
// full-scale suite that print the same entry in every row, keyed "<table
// title> | <column header>", each with the reason it stays. The list is
// capped at its size when the check landed, and an entry that excuses
// nothing fails, so it can only shrink.
var constantColumns = map[string]string{
	"Figure 7 — Sensitivity to remote:local latency ratio (mesh, P=32) | MP":    "the ratio scales only the coherence-miss costs CC-SAS pays; MP's messages do not see it",
	"Figure 7 — Sensitivity to remote:local latency ratio (mesh, P=32) | SHMEM": "as MP: puts and gets do not see the miss-cost ratio",
	"Figure 8 — PLUM remapping on vs off (mesh, P=64) | moved weight on":        "every model runs the same partition, so the remap moves the same weight under each",
	"Figure 8 — PLUM remapping on vs off (mesh, P=64) | moved weight off":       "as moved weight on, without the remap",
	"Table 9 — Traffic statistics (mesh application) | lock ops":                "no application takes a sas.Lock, so every row reads 0 (ROADMAP item 3(f))",
}

const maxConstantColumns = 5

// checkConstantColumns fails on a column that prints the same entry in every
// row of a table of two or more rows, unless constantColumns lists it: a
// printed number that cannot vary says nothing about what the table compares.
func checkConstantColumns(t *testing.T, tables []*core.Table) {
	t.Helper()
	if len(constantColumns) > maxConstantColumns {
		t.Fatalf("the constant-column list has %d entries, at most %d may stay", len(constantColumns), maxConstantColumns)
	}
	matched := map[string]bool{}
	for _, tb := range tables {
		if len(tb.Rows) < 2 {
			continue
		}
		for i, h := range tb.Header {
			if slices.ContainsFunc(tb.Rows, func(r []string) bool { return len(r) <= i || r[i] != tb.Rows[0][i] }) {
				continue // the first row is checked first, so Rows[0][i] exists below
			}
			name := tb.Title + " | " + h
			if constantColumns[name] == "" {
				t.Errorf("%s: all %d rows print %q; make it vary or list it with its reason", name, len(tb.Rows), tb.Rows[0][i])
			}
			matched[name] = true
		}
	}
	for name := range constantColumns {
		if !matched[name] {
			t.Errorf("%s is on the constant-column list but varies (or is gone): drop the entry", name)
		}
	}
}

// quickKeySet is the first 16 hex digits of the SHA-256 of the quick
// suite's cell keys (core.CellKey), sorted, one per line. Keys are published
// (the run report, GET /v1/cells) and name every disk-cache entry, so a
// change in how they are derived silently resets every cache. A deliberate
// key change updates this constant, as it updates digestsFile for moved
// bytes.
const quickKeySet = "1893291c7d3eb119"

// TestGoldenQuickOutput checks `o2kbench -quick -exp all` against its lines
// of digestsFile, and its cell keys against quickKeySet, on an engine of its
// own, under -short and -race too.
func TestGoldenQuickOutput(t *testing.T) {
	const cmd = "-quick -exp all"
	data, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, cmd+"\t") {
			want = append(want, line)
		}
	}
	eng := runner.New(0)
	got := digestLines(cmd, Render(RunAllCtx(bg, eng, QuickOpts())))
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("quick suite sections moved:\npinned:\n%s\nnow:\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
	var keys []string
	for _, c := range eng.Report().Cells {
		keys = append(keys, c.Key)
	}
	slices.Sort(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n") + "\n"))
	if got := hex.EncodeToString(sum[:8]); got != quickKeySet {
		t.Errorf("the quick suite's %d cell keys moved: key set %s, pinned %s", len(keys), got, quickKeySet)
	}
}

// digestLines is cmd's lines of digestsFile for its stdout out.
func digestLines(cmd, out string) []string {
	var lines []string
	for _, s := range sections(out) {
		sum := sha256.Sum256([]byte(s.body))
		lines = append(lines, cmd+"\t"+s.key+"\t"+hex.EncodeToString(sum[:8]))
	}
	return lines
}

type section struct{ key, body string }

// sections splits one command's stdout into the manifest's sections. The
// blank line between two tables belongs to the section above it.
func sections(out string) []section {
	var ss []section
	verdicts, n := false, 0 // in the verdict table; lines of its block so far
	for _, line := range strings.SplitAfter(out, "\n") {
		n++
		switch {
		case line == "": // SplitAfter's empty tail
		case strings.HasPrefix(line, "## "):
			title := strings.TrimSuffix(line[len("## "):], "\n")
			verdicts, n = strings.HasPrefix(title, "Verdicts "), 0
			ss = append(ss, section{title, line})
		case len(ss) == 0:
			ss = append(ss, section{"(untitled)", line})
		case verdicts && n == 2: // the rule under the header
		case verdicts && n > 2 && line != "\n":
			ss = append(ss, section{strings.Fields(line)[0], line})
		default:
			ss[len(ss)-1].body += line
		}
	}
	return ss
}
