package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module for driver tests. Raw
// os.WriteFile is fine here: test files are outside the lint surface.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const gomod = "module tmpmod\n\ngo 1.22\n"

// TestExitCodeContract pins graphlint's exit-code contract:
// 0 clean, 1 findings, 2 load/type-check error.
func TestExitCodeContract(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":     gomod,
			"lib/lib.go": "package lib\n\nfunc Add(a, b int) int { return a + b }\n",
		})
		var out, errb bytes.Buffer
		if got := run([]string{"-dir", dir, "./..."}, &out, &errb); got != exitClean {
			t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", got, exitClean, out.String(), errb.String())
		}
		if out.Len() != 0 {
			t.Fatalf("clean run printed diagnostics:\n%s", out.String())
		}
	})

	t.Run("findings", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": gomod,
			"lib/lib.go": "package lib\n\nimport \"os\"\n\n" +
				"func Save(p string, b []byte) error {\n\treturn os.WriteFile(p, b, 0o644)\n}\n",
		})
		var out, errb bytes.Buffer
		if got := run([]string{"-dir", dir, "./..."}, &out, &errb); got != exitFindings {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", got, exitFindings, errb.String())
		}
		diag := out.String()
		if !strings.Contains(diag, "lib.go:6:") || !strings.Contains(diag, "(atomicwrite)") {
			t.Fatalf("diagnostic missing file:line or analyzer name:\n%s", diag)
		}
	})

	t.Run("suppressed finding is clean", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod": gomod,
			"lib/lib.go": "package lib\n\nimport \"os\"\n\n" +
				"func Save(p string, b []byte) error {\n" +
				"\t//lint:ignore atomicwrite exercised by the driver test\n" +
				"\treturn os.WriteFile(p, b, 0o644)\n}\n",
		})
		var out, errb bytes.Buffer
		if got := run([]string{"-dir", dir, "./..."}, &out, &errb); got != exitClean {
			t.Fatalf("exit = %d, want %d\nstdout:\n%s", got, exitClean, out.String())
		}
	})

	t.Run("syntax error", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":     gomod,
			"lib/lib.go": "package lib\n\nfunc Broken(\n",
		})
		var out, errb bytes.Buffer
		if got := run([]string{"-dir", dir, "./..."}, &out, &errb); got != exitLoadError {
			t.Fatalf("exit = %d, want %d", got, exitLoadError)
		}
		if errb.Len() == 0 {
			t.Fatal("load error printed nothing to stderr")
		}
	})

	t.Run("type error", func(t *testing.T) {
		dir := writeModule(t, map[string]string{
			"go.mod":     gomod,
			"lib/lib.go": "package lib\n\nfunc Bad() int { return undefinedName }\n",
		})
		var out, errb bytes.Buffer
		if got := run([]string{"-dir", dir, "./..."}, &out, &errb); got != exitLoadError {
			t.Fatalf("exit = %d, want %d", got, exitLoadError)
		}
	})

	t.Run("missing module", func(t *testing.T) {
		var out, errb bytes.Buffer
		if got := run([]string{"-dir", t.TempDir(), "./..."}, &out, &errb); got != exitLoadError {
			t.Fatalf("exit = %d, want %d", got, exitLoadError)
		}
	})
}

// dirtyModule is a module with one atomicwrite finding, used by the
// format and baseline tests below.
func dirtyModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": gomod,
		"lib/lib.go": "package lib\n\nimport \"os\"\n\n" +
			"func Save(p string, b []byte) error {\n\treturn os.WriteFile(p, b, 0o644)\n}\n",
	})
}

func TestFormatJSON(t *testing.T) {
	dir := dirtyModule(t)
	var out, errb bytes.Buffer
	if got := run([]string{"-dir", dir, "-format", "json", "./..."}, &out, &errb); got != exitFindings {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", got, exitFindings, errb.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1:\n%s", len(findings), out.String())
	}
	f := findings[0]
	if f["analyzer"] != "atomicwrite" || f["file"] != "lib/lib.go" {
		t.Errorf("finding = %v, want atomicwrite in lib/lib.go (module-relative slash path)", f)
	}
	if _, ok := f["baselined"]; ok {
		t.Errorf("un-baselined finding must omit the baselined flag: %v", f)
	}
}

func TestFormatJSONCleanIsEmptyArray(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     gomod,
		"lib/lib.go": "package lib\n\nfunc Add(a, b int) int { return a + b }\n",
	})
	var out, errb bytes.Buffer
	if got := run([]string{"-dir", dir, "-format", "json", "./..."}, &out, &errb); got != exitClean {
		t.Fatalf("exit = %d, want %d", got, exitClean)
	}
	if s := strings.TrimSpace(out.String()); s != "[]" {
		t.Fatalf("clean JSON output = %q, want []", s)
	}
}

func TestFormatSARIF(t *testing.T) {
	dir := dirtyModule(t)
	var out, errb bytes.Buffer
	if got := run([]string{"-dir", dir, "-format", "sarif", "./..."}, &out, &errb); got != exitFindings {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", got, exitFindings, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version/runs = %q/%d, want 2.1.0/1", log.Version, len(log.Runs))
	}
	runData := log.Runs[0]
	if runData.Tool.Driver.Name != "graphlint" {
		t.Errorf("driver name = %q", runData.Tool.Driver.Name)
	}
	ruleIDs := map[string]bool{}
	for _, r := range runData.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"atomicwrite", "determinism", "lockdiscipline", "atomicmix"} {
		if !ruleIDs[want] {
			t.Errorf("SARIF rules missing %s", want)
		}
	}
	if len(runData.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(runData.Results))
	}
	res := runData.Results[0]
	if res.RuleID != "atomicwrite" || res.Level != "error" {
		t.Errorf("result = %s/%s, want atomicwrite/error", res.RuleID, res.Level)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "lib/lib.go" || loc.Region.StartLine != 6 {
		t.Errorf("location = %s:%d, want lib/lib.go:6", loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
}

func TestBaselineMakesFindingsNonFatal(t *testing.T) {
	dir := dirtyModule(t)
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, []byte(`{
  "entries": [
    {
      "analyzer": "atomicwrite",
      "file": "lib/lib.go",
      "message": "raw os\\.WriteFile",
      "reason": "driver test: known debt, tracked"
    }
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if got := run([]string{"-dir", dir, "-baseline", base, "./..."}, &out, &errb); got != exitClean {
		t.Fatalf("exit = %d, want %d (baselined findings are non-fatal)\nstdout:\n%s\nstderr:\n%s",
			got, exitClean, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[baselined: driver test: known debt, tracked]") {
		t.Errorf("baselined finding must still be reported with its reason:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "1 baselined finding(s) tolerated") {
		t.Errorf("stderr must count tolerated findings:\n%s", errb.String())
	}

	// A second, un-baselined violation must still fail.
	if err := os.WriteFile(filepath.Join(dir, "lib", "extra.go"),
		[]byte("package lib\n\nimport \"os\"\n\nfunc Save2(p string, b []byte) error {\n\treturn os.WriteFile(p, b, 0o600)\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if got := run([]string{"-dir", dir, "-baseline", base, "./..."}, &out, &errb); got != exitFindings {
		t.Fatalf("exit = %d, want %d (new finding must stay fatal)\nstdout:\n%s", got, exitFindings, out.String())
	}
}

func TestBaselineStaleEntryIsFlagged(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     gomod,
		"lib/lib.go": "package lib\n\nfunc Add(a, b int) int { return a + b }\n",
	})
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, []byte(`{
  "entries": [
    {"analyzer": "atomicwrite", "file": "lib/lib.go", "message": ".*", "reason": "paid down long ago"}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if got := run([]string{"-dir", dir, "-baseline", base, "./..."}, &out, &errb); got != exitClean {
		t.Fatalf("exit = %d, want %d", got, exitClean)
	}
	if !strings.Contains(errb.String(), "stale baseline entry") {
		t.Errorf("stale entry must be flagged on stderr:\n%s", errb.String())
	}
}

func TestBaselineReasonIsMandatory(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, []byte(`{
  "entries": [{"analyzer": "atomicwrite", "file": "lib/lib.go", "message": ".*", "reason": "  "}]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if got := run([]string{"-dir", t.TempDir(), "-baseline", base, "./..."}, &out, &errb); got != exitLoadError {
		t.Fatalf("exit = %d, want %d (reasonless baseline entry must be rejected)", got, exitLoadError)
	}
	if !strings.Contains(errb.String(), "reason is required") {
		t.Errorf("stderr must explain the rejection:\n%s", errb.String())
	}
}

func TestFormatFlagRejectsUnknown(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-format", "xml"}, &out, &errb); got != exitLoadError {
		t.Fatalf("exit = %d, want %d", got, exitLoadError)
	}
}

func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-list"}, &out, &errb); got != exitClean {
		t.Fatalf("exit = %d, want %d", got, exitClean)
	}
	for _, name := range []string{"atomicwrite", "errtaxonomy", "ctxpropagate", "allocbound", "leakygoroutine"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}
