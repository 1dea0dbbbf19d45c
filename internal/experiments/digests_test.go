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
// multiply; the full-scale leg also checks what EXPERIMENTS.md quotes.
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
		tables, err := RunOnCtx(bg, engines[req.Quick], req.Exp, o)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		out := Render(tables)
		if !req.Quick {
			fullOuts = append(fullOuts, out)
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

// quickKeySet is the first 16 hex digits of the SHA-256 of the quick
// suite's cell keys (core.CellKey), sorted, one per line. Keys are published
// (the run report, GET /v1/cells) and name every disk-cache entry, so a
// change in how they are derived silently resets every cache. A deliberate
// key change updates this constant, as it updates digestsFile for moved
// bytes.
const quickKeySet = "0cbb359be085dd26"

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
