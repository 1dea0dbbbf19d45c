package experiments

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"o2k/internal/core"
)

// moduleRoot is the module root relative to this package's directory, where
// `go test` runs.
const moduleRoot = "../.."

// TestTable5CountsItsSources recounts the files each row of table5 names and
// compares the counts with the checked-in literal. The binary prints the
// literal, so it needs no source tree at run time; this test is what keeps
// the literal true. A counted-file edit fails here with the row to paste,
// and — since Table 5 is part of the quick suite — moves goldenQuickSHA256
// in the same commit.
//
// The counts also carry the paper's Table 5 point: CC-SAS needs the least
// code in every application row (TestTable5LoCOrdering).
func TestTable5CountsItsSources(t *testing.T) {
	for _, r := range table5 {
		var got [3]int
		for i, rel := range r.files {
			n, err := countLoC(filepath.Join(moduleRoot, rel))
			if err != nil {
				t.Fatalf("%s: %v", r.label, err)
			}
			got[i] = n
		}
		if got != r.lines {
			t.Errorf("Table 5 %q is stale: the literal says %v, the sources count %v.\n"+
				"Paste [3]int{%d, %d, %d} into its row of table5 in loc.go and update "+
				"goldenQuickSHA256 in golden_test.go in the same commit.",
				r.label, r.lines, got, got[0], got[1], got[2])
		}
	}
}

// TestExperimentsE5IsTable5 checks that EXPERIMENTS.md quotes the table the
// binary prints: the fenced block under the E5 heading equals the rendered
// Table 5.
func TestExperimentsE5IsTable5(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(moduleRoot, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## E5 ")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no E5 section")
	}
	_, block, ok := strings.Cut(sec, "\n```\n")
	if ok {
		block, _, ok = strings.Cut(block, "```\n")
	}
	if !ok {
		t.Fatal("EXPERIMENTS.md's E5 section has no fenced block")
	}
	if want := Render([]*core.Table{Table5()}); block != want {
		t.Errorf("EXPERIMENTS.md E5 is stale; replace its fenced block with:\n%s", want)
	}
}

// countLoC counts non-blank, non-comment-only lines over a Go file or all
// non-test Go files of a directory.
func countLoC(path string) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !info.IsDir() {
		return countFile(path)
	}
	total := 0
	entries, err := os.ReadDir(path)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		n, err := countFile(filepath.Join(path, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				inBlock = false
				line = strings.TrimSpace(line[idx+2:])
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}
