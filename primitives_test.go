package espresso_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneSeededGenerator fails when the splitmix64 increment appears in
// more than one non-test Go file outside bench/: every seeded draw goes
// through internal/splitmix, and a second copy of the generator is a
// second stream to keep bit-identical.
func TestOneSeededGenerator(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if bytes.Contains(data, []byte("0x9e3779b97f4a7c15")) {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != "internal/splitmix/splitmix.go" {
		t.Fatalf("splitmix64 increment in %v, want only internal/splitmix/splitmix.go", files)
	}
}
