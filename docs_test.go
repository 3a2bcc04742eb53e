package espresso_test

import (
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that must describe the tree as it is.
// CHANGES.md and ROADMAP.md are history, and bench/ is frozen outside
// benchmark PRs, so none of those is held to the tree.
var docFiles = []string{"README.md", "EXPERIMENTS.md", "TESTING.md", "DESIGN.md", ".github/workflows/ci.yml"}

var (
	pathToken = regexp.MustCompile(`[A-Za-z0-9_./-]+`)
	repoPath  = regexp.MustCompile(`^(cmd|configs|scripts|internal)/`)
)

// repoPaths returns the cmd/, configs/, scripts/ and internal/ paths a
// document names. A token must start at one of those directories
// (after an optional "./"), which leaves out third-party module paths
// such as honnef.co/go/tools/cmd/staticcheck. Globs — a token cut short
// by "*" or "{", as in configs/chaos-*.json — are left out too.
func repoPaths(doc string) []string {
	var out []string
	for _, loc := range pathToken.FindAllStringIndex(doc, -1) {
		tok := strings.TrimPrefix(doc[loc[0]:loc[1]], "./")
		if !repoPath.MatchString(tok) {
			continue
		}
		if loc[1] < len(doc) && strings.ContainsRune("*{", rune(doc[loc[1]])) {
			continue
		}
		out = append(out, strings.TrimRight(tok, "./"))
	}
	return out
}

// exists reports whether p is in the tree, reading a "." in its last
// element as the start of a Go symbol (internal/obs/analyze.Analyze)
// when the path as written is not there.
func exists(p string) bool {
	if _, err := os.Stat(p); err == nil {
		return true
	}
	dir, last := path.Split(p)
	pkg, _, isSymbol := strings.Cut(last, ".")
	if !isSymbol {
		return false
	}
	_, err := os.Stat(dir + pkg)
	return err == nil
}

// TestDocsMatchTree fails when a document names a path that is not in
// the tree, or when README does not name one of the cmd/ binaries.
func TestDocsMatchTree(t *testing.T) {
	inReadme := map[string]bool{}
	for _, name := range docFiles {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range repoPaths(string(data)) {
			if !exists(p) {
				t.Errorf("%s names %s, which does not exist", name, p)
			}
			if name == "README.md" {
				inReadme[p] = true
			}
		}
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if p := "cmd/" + c.Name(); !inReadme[p] {
			t.Errorf("README.md does not mention %s", p)
		}
	}
}
