package experiments

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the module root relative to this package's directory, where
// `go test` runs.
const moduleRoot = "../.."

// TestTable5CountsItsSources recounts the files each row of table5 names and
// compares the counts with the checked-in literal. The binary prints the
// literal, so it needs no source tree at run time; this test is what keeps
// the literal true. A counted-file edit fails here with the row to paste,
// and pasting it moves Table 5 and V5 in testdata/digests.txt (TestDigests),
// which the same commit updates.
//
// The counts also carry the paper's Table 5 point: CC-SAS needs the least
// code in every row (V5, pinned by TestDigests).
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
				"its Table 5 and V5 lines in testdata/digests.txt (TestDigests prints them) in the same commit.",
				r.label, r.lines, got, got[0], got[1], got[2])
		}
	}
}

// TestExperimentsE5IsTable5 checks what EXPERIMENTS.md quotes of Table 5
// without a full-scale run, so under -short and -race too: the E5 block is
// the table the binary prints, and V5's line passes with table5Verdict's
// evidence.
func TestExperimentsE5IsTable5(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(moduleRoot, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if block := "```\n" + Table5().String() + "```\n"; !strings.Contains(string(doc), block) {
		t.Errorf("EXPERIMENTS.md has no E5 block reading\n%s", block)
	}
	ok, evidence := table5Verdict()
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "V5 ") {
			if !ok || !strings.Contains(line, " PASS ") || !strings.HasSuffix(line, "  "+evidence) {
				t.Errorf("EXPERIMENTS.md's V5 line %q, want PASS with evidence %q (verdict %v)", line, evidence, ok)
			}
			return
		}
	}
	t.Error("EXPERIMENTS.md has no V5 line")
}

// TestKernelsServeEveryModel checks that each app's kernels.go — the loops
// its models share, which Table 5 does not count — holds nothing but such
// loops: every top-level function there is called from each of the three
// files table5 counts for the app. A helper only some models call belongs in
// their files, where Table 5 counts it.
func TestKernelsServeEveryModel(t *testing.T) {
	fset := token.NewFileSet()
	calls := func(path string) map[string]bool {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		called := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok {
					called[id.Name] = true
				}
			}
			return true
		})
		return called
	}
	apps := 0
	for _, r := range table5 {
		if !strings.HasSuffix(r.files[0], ".go") {
			continue // the runtime row counts directories, not an app's files
		}
		apps++
		path := filepath.Join(moduleRoot, filepath.Dir(r.files[0]), "kernels.go")
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		var kernels []string
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				kernels = append(kernels, fd.Name.Name)
			}
		}
		if len(kernels) == 0 {
			t.Errorf("%s: %s declares no function", r.label, path)
		}
		for _, rel := range r.files {
			called := calls(filepath.Join(moduleRoot, rel))
			for _, k := range kernels {
				if !called[k] {
					t.Errorf("%s: kernels.go declares %s, which %s does not call; "+
						"a helper not every model calls belongs in the model files", r.label, k, rel)
				}
			}
		}
	}
	if apps == 0 {
		t.Error("table5 has no app rows")
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
