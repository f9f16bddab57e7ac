package lint_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graphdse/internal/lint"
)

// want is one expectation parsed from a corpus `// want "regexp"` comment.
type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the raw source of every corpus file for want comments.
func collectWants(t *testing.T, pkg *lint.Package) map[string][]*want {
	t.Helper()
	out := make(map[string][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for {
					rest = strings.TrimSpace(rest)
					if rest == "" {
						break
					}
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: bad want comment %q: %v", pos.Filename, pos.Line, c.Text, err)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquote %q: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out[pos.Filename] = append(out[pos.Filename], &want{line: pos.Line, re: re})
					rest = rest[len(q):]
				}
			}
		}
	}
	return out
}

// One loader for the whole test binary: the source importer re-checks the
// standard library per loader, so sharing it keeps the suite fast. Tests
// in one package run on one goroutine, so no locking is needed.
var (
	sharedLoader    *lint.Loader
	sharedLoaderErr error
	loaderOnce      sync.Once
)

func newCorpusLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := lint.FindModuleRoot(".")
		if err != nil {
			sharedLoaderErr = err
			return
		}
		sharedLoader, sharedLoaderErr = lint.NewLoader(root)
	})
	if sharedLoaderErr != nil {
		t.Fatal(sharedLoaderErr)
	}
	return sharedLoader
}

// runCorpus loads testdata/src/<dir> under the given import path, runs one
// analyzer, and diffs the diagnostics against the want comments.
func runCorpus(t *testing.T, dir, path string, analyzer *lint.Analyzer) {
	t.Helper()
	loader := newCorpusLoader(t)
	pkg, err := loader.LoadDirAs(path, filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatalf("load corpus %s: %v", dir, err)
	}
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{analyzer})
	wants := collectWants(t, pkg)

	for _, d := range diags {
		ok := false
		for _, w := range wants[d.Pos.Filename] {
			if w.line == d.Pos.Line && !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: want %q, got no matching diagnostic", file, w.line, w.re)
			}
		}
	}
}

func TestCorpus(t *testing.T) {
	cases := []struct {
		dir      string
		path     string
		analyzer *lint.Analyzer
	}{
		{"atomicwrite", "corpus/atomicwrite", lint.AtomicWrite},
		{"atomicwrite_artifact", "corpus/internal/artifact", lint.AtomicWrite},
		{"errtaxonomy", "corpus/errtaxonomy", lint.ErrTaxonomy},
		{"ctxpropagate", "corpus/ctxpropagate", lint.CtxPropagate},
		{"ctxpropagate_main", "corpus/ctxpropagate_main", lint.CtxPropagate},
		{"allocbound", "corpus/allocbound", lint.AllocBound},
		{"leakygoroutine", "corpus/leakygoroutine", lint.LeakyGoroutine},
		{"httpctx", "corpus/httpctx", lint.HTTPCtx},
		{"ssecontract", "corpus/ssecontract", lint.SSEContract},
		{"determinism", "corpus/determinism", lint.Determinism},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) { runCorpus(t, c.dir, c.path, c.analyzer) })
	}
}

// TestLockdiscipline and TestAtomicmix get top-level names (rather than
// TestCorpus subtests) so CI's chaos job — which runs concurrency-sensitive
// tests under -race by name regexp — picks them up directly.
func TestLockdiscipline(t *testing.T) {
	runCorpus(t, "lockdiscipline", "corpus/lockdiscipline", lint.Lockdiscipline)
}

func TestAtomicmix(t *testing.T) {
	runCorpus(t, "atomicmix", "corpus/atomicmix", lint.Atomicmix)
}

// TestMalformedSuppressions pins that a //lint:ignore with a missing
// reason or an unknown analyzer name is itself a finding and suppresses
// nothing.
func TestMalformedSuppressions(t *testing.T) {
	loader := newCorpusLoader(t)
	pkg, err := loader.LoadDirAs("corpus/suppressbad", filepath.Join("testdata", "src", "suppressbad"))
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.AtomicWrite})
	var suppress, atomic int
	for _, d := range diags {
		switch d.Analyzer {
		case "suppress":
			suppress++
		case "atomicwrite":
			atomic++
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}
	if suppress != 2 {
		t.Errorf("malformed-suppression findings = %d, want 2 (missing reason + unknown analyzer):\n%s", suppress, render(diags))
	}
	if atomic != 2 {
		t.Errorf("atomicwrite findings = %d, want 2 (broken directives must not suppress):\n%s", atomic, render(diags))
	}
}

func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

// TestLoaderPatterns pins the ./...-style pattern matching of the loader.
func TestLoaderPatterns(t *testing.T) {
	loader := newCorpusLoader(t)
	pkgs, err := loader.LoadAll("internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "graphdse/internal/lint" {
		t.Fatalf("LoadAll(internal/lint) = %v", paths(pkgs))
	}
	pkgs, err = loader.LoadAll("internal/lint/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("testdata must be skipped by the walker, got %v", paths(pkgs))
	}
}

func paths(pkgs []*lint.Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}

// TestRepoIsClean is the acceptance criterion as a test: the full suite
// over the whole module reports nothing beyond the committed baseline. A
// contract violation introduced anywhere in the tree fails this test even
// before CI's lint job runs; a baselined finding that disappears fails it
// too (the stale entry must be deleted), so the baseline only ever
// shrinks.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := newCorpusLoader(t)
	baseline, err := lint.LoadBaseline(filepath.Join(loader.ModuleDir, "graphlint_baseline.json"))
	if err != nil {
		t.Fatalf("load committed baseline: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %v", paths(pkgs))
	}
	for _, w := range loader.Warnings() {
		t.Errorf("load warning (skipped package): %s", w)
	}
	active, baselined := baseline.Apply(lint.Run(pkgs, lint.All))
	for _, d := range active {
		t.Errorf("%s", d)
	}
	for _, d := range baselined {
		t.Logf("baselined: %s (reason: %s)", d, baseline.Reason(d))
	}
	for _, e := range baseline.Stale() {
		t.Errorf("stale baseline entry: %s in %s matched nothing — delete it", e.Analyzer, e.File)
	}
}
