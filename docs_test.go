package o2k_test

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docSection is one numbered heading of DESIGN.md: its title, its text, and
// what may be named inside it, the titles of its subheadings and its bold
// paragraph leads.
type docSection struct {
	title string
	body  strings.Builder
	names map[string]bool
}

var (
	headingRE  = regexp.MustCompile(`^(#+)\s+(?:([0-9]+[a-z]?(?:\.[0-9]+)*)\.?\s+)?(.*)$`)
	boldLeadRE = regexp.MustCompile(`^(?:- )?\*\*([^*]+)\*\*`)
	// A reference may wrap: "DESIGN.md" ends one comment line, "§5.2" starts
	// the next.
	designRefRE = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)+§\s?([0-9]+[a-z]?(?:\.[0-9]+)*)(?:(?:\s|//|#)+"([^"\n]+)")?`)
	selfRefRE   = regexp.MustCompile(`§([0-9]+[a-z]?(?:\.[0-9]+)*)(?:\s+"([^"\n]+)")?`)
	prRE        = regexp.MustCompile(`\bPR ?[0-9]+`)
	testNameRE  = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z][A-Za-z0-9_]*`)
	testFuncRE  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)[A-Z][A-Za-z0-9_]*)\(`)
	backtickRE  = regexp.MustCompile("`([^`\n]+)`")
)

// designSections parses DESIGN.md's numbered headings. A section runs to the
// next heading of its level or higher, and every heading or bold lead inside
// it is a name it answers to.
func designSections(text string) map[string]*docSection {
	type open struct {
		level int
		sec   *docSection
	}
	secs := map[string]*docSection{}
	var stack []open
	for _, line := range strings.Split(text, "\n") {
		if m := headingRE.FindStringSubmatch(line); m != nil {
			level := len(m[1])
			for len(stack) > 0 && stack[len(stack)-1].level >= level {
				stack = stack[:len(stack)-1]
			}
			for _, o := range stack {
				o.sec.names[m[3]] = true
			}
			if m[2] != "" {
				sec := &docSection{title: m[3], names: map[string]bool{}}
				secs[m[2]] = sec
				stack = append(stack, open{level, sec})
			}
		} else if m := boldLeadRE.FindStringSubmatch(line); m != nil {
			for _, o := range stack {
				o.sec.names[strings.TrimSuffix(m[1], ".")] = true
			}
		}
		for _, o := range stack {
			o.sec.body.WriteString(line + "\n")
		}
	}
	return secs
}

// docSources returns the files whose DESIGN references must resolve: the Go
// files of both modules, CI, and the documents that describe the system.
// CHANGES.md (a log) and ROADMAP.md (a plan) are not read.
func docSources(t *testing.T) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			data, err := os.ReadFile(path)
			files[path] = string(data)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{".github/workflows/ci.yml", "README.md", "EXPERIMENTS.md", "NOTEBOOK.md"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = string(data)
	}
	return files
}

// TestDocReferencesResolve keeps the documentation pointing at what exists:
//
//	(a) every "DESIGN.md §X" or "DESIGN §X" in code, CI, README.md,
//	    EXPERIMENTS.md and NOTEBOOK.md, and every "§X" inside DESIGN.md,
//	    names a numbered heading of DESIGN.md; a quoted name after it,
//	    §X "Name", names a subheading or a bold paragraph lead inside §X;
//	(b) DESIGN.md's inventory (§3) names every package directory under
//	    internal/ and cmd/;
//	(c) DESIGN.md and README.md name no PR: they describe the system, and
//	    CHANGES.md holds its history;
//	(d) every test or benchmark DESIGN.md names is a function of a test
//	    file of either module.
func TestDocReferencesResolve(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)
	secs := designSections(design)
	sources := docSources(t)

	resolve := func(where, id, name string) {
		sec := secs[id]
		switch {
		case sec == nil:
			t.Errorf("%s: DESIGN.md has no §%s", where, id)
		case name != "" && !sec.names[name]:
			t.Errorf("%s: DESIGN.md §%s (%s) has no heading or bold lead %q", where, id, sec.title, name)
		}
	}
	for _, path := range slices.Sorted(maps.Keys(sources)) {
		for _, m := range designRefRE.FindAllStringSubmatch(sources[path], -1) {
			resolve(path, m[1], m[2])
		}
	}
	for _, m := range selfRefRE.FindAllStringSubmatch(design, -1) {
		resolve("DESIGN.md", m[1], m[2])
	}

	if secs["3"] == nil {
		t.Fatal("DESIGN.md has no §3, the system inventory")
	}
	listed := map[string]bool{}
	for _, m := range backtickRE.FindAllStringSubmatch(secs["3"].body.String(), -1) {
		listed[m[1]] = true
	}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if gos, _ := filepath.Glob(filepath.Join(path, "*.go")); len(gos) > 0 && !listed[filepath.ToSlash(path)] {
				t.Errorf("DESIGN.md §3 does not list package %s", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if prs := prRE.FindAllString(string(data), -1); len(prs) > 0 {
			t.Errorf("%s names %d PRs (%s, …): describe the system, and leave its history to CHANGES.md", doc, len(prs), prs[0])
		}
	}

	defined := map[string]bool{}
	for path, text := range sources {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFuncRE.FindAllStringSubmatch(text, -1) {
				defined[m[1]] = true
			}
		}
	}
	for _, name := range testNameRE.FindAllString(design, -1) {
		if !defined[name] {
			t.Errorf("DESIGN.md names %s, which no test file of either module defines", name)
		}
	}
}
