package comparisondiag

// The docs under docs/ cite tests and source files as evidence for their
// claims. A citation of something that no longer exists is a claim
// nothing checks, so this test keeps every citation resolvable.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	citedTestRe = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)
	citedPathRe = regexp.MustCompile(`[A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\.go\b`)
	testFuncRe  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
)

// TestDocsCiteExistingCode checks that every Test*, Fuzz* and
// Benchmark* identifier cited in docs/*.md is declared as a func in some
// _test.go file of the repository, and that every cited Go file path
// with a directory part exists relative to the repository root.
func TestDocsCiteExistingCode(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRe.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no docs/*.md found")
	}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for _, id := range citedTestRe.FindAllString(text, -1) {
			if !declared[id] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, id)
			}
		}
		for _, path := range citedPathRe.FindAllString(text, -1) {
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, path)
			}
		}
	}
}
