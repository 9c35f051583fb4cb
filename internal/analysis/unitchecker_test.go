package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeUnit builds a vet-config unit around one source file and returns
// the config path and the VetxOutput path.
func writeUnit(t *testing.T, src string, succeedOnTypecheckFailure bool) (string, string) {
	t.Helper()
	dir := t.TempDir()
	goFile := filepath.Join(dir, "unit.go")
	if err := os.WriteFile(goFile, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "unit.vetx")
	cfg := vetConfig{
		ID:                        "tmpvet",
		Compiler:                  "gc",
		Dir:                       dir,
		ImportPath:                "tmpvet",
		GoFiles:                   []string{goFile},
		VetxOutput:                vetx,
		SucceedOnTypecheckFailure: succeedOnTypecheckFailure,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return cfgPath, vetx
}

func TestUnitcheckerFindings(t *testing.T) {
	cfgPath, vetx := writeUnit(t, "package tmpvet\n\nfunc f() {\n\tgo func() {}()\n}\n", false)
	var stderr bytes.Buffer
	code := RunUnitchecker(cfgPath, []*Analyzer{NoSpawn}, &stderr)
	if code != ExitFindings {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, ExitFindings, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nospawn") {
		t.Errorf("stderr missing nospawn diagnostic: %s", stderr.String())
	}
	// The facts file must exist even when there are findings — cmd/go
	// caches it.
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

func TestUnitcheckerClean(t *testing.T) {
	cfgPath, vetx := writeUnit(t, "package tmpvet\n\nfunc f() int { return 1 }\n", false)
	var stderr bytes.Buffer
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitClean {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, ExitClean, stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

func TestUnitcheckerTypecheckFailure(t *testing.T) {
	const broken = "package tmpvet\n\nfunc f() int { return undefined }\n"

	var stderr bytes.Buffer
	cfgPath, _ := writeUnit(t, broken, false)
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitError {
		t.Errorf("exit = %d, want %d for a broken unit", code, ExitError)
	}

	// With SucceedOnTypecheckFailure the real compile error is reported
	// by the build itself; vet must stay silent and succeed.
	stderr.Reset()
	cfgPath, vetx := writeUnit(t, broken, true)
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitClean {
		t.Errorf("exit = %d, want %d with SucceedOnTypecheckFailure", code, ExitClean)
	}
	if stderr.Len() != 0 {
		t.Errorf("unexpected output: %s", stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

// rewriteUnit applies edit to the vet config at cfgPath.
func rewriteUnit(t *testing.T, cfgPath string, edit func(*vetConfig)) {
	t.Helper()
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	edit(&cfg)
	data, err = json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

func TestUnitcheckerVetxOnly(t *testing.T) {
	cfgPath, vetx := writeUnit(t, "package tmpvet\n\nfunc f() {\n\tgo func() {}()\n}\n", false)
	rewriteUnit(t, cfgPath, func(cfg *vetConfig) { cfg.VetxOnly = true })
	var stderr bytes.Buffer
	if code := RunUnitchecker(cfgPath, Analyzers(), &stderr); code != ExitClean {
		t.Fatalf("exit = %d, want %d in VetxOnly mode\nstderr: %s", code, ExitClean, stderr.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput not written: %v", err)
	}
}

// TestUnitcheckerTrustsStandardLibrary checks the vet-tool driver judges
// a determinism root that calls fmt.Errorf as the standalone driver
// does: clean. cmd/go hands the tool facts for the standard library
// too, and analyzed, fmt.Errorf reaches a select in the runtime; the
// unit gets such a fact here. Marked standard, the fact is ignored;
// unmarked, the same fact is a finding, so the fact is live.
func TestUnitcheckerTrustsStandardLibrary(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", "fmt").Output()
	if err != nil {
		t.Fatalf("go list -export fmt: %v", err)
	}
	export := strings.TrimSpace(string(out))
	store := NewFactStore()
	store.put("fmt", "Errorf", &Deterministic{Reason: "selects across channels in runtime.clearpools"})
	facts, err := store.EncodePackage("fmt")
	if err != nil {
		t.Fatal(err)
	}
	fmtVetx := filepath.Join(t.TempDir(), "fmt.vetx")
	if err := os.WriteFile(fmtVetx, facts, 0o666); err != nil {
		t.Fatal(err)
	}
	const src = "package tmpvet\n\nimport \"fmt\"\n\n" +
		"// Root wraps x.\n//\n//peelvet:deterministic\nfunc Root(x int) error { return fmt.Errorf(\"x = %d\", x) }\n"
	cfgPath, _ := writeUnit(t, src, false)
	run := func(standard bool) (int, string) {
		rewriteUnit(t, cfgPath, func(cfg *vetConfig) {
			cfg.ImportMap = map[string]string{"fmt": "fmt"}
			cfg.PackageFile = map[string]string{"fmt": export}
			cfg.PackageVetx = map[string]string{"fmt": fmtVetx}
			cfg.Standard = map[string]bool{"fmt": standard}
		})
		var stderr bytes.Buffer
		code := RunUnitchecker(cfgPath, Analyzers(), &stderr)
		return code, stderr.String()
	}
	if code, stderr := run(true); code != ExitClean {
		t.Fatalf("fmt marked standard: exit = %d, want %d\nstderr: %s", code, ExitClean, stderr)
	}
	if code, stderr := run(false); code != ExitFindings || !strings.Contains(stderr, "detflow") {
		t.Fatalf("fmt not marked standard: exit = %d, want %d with a detflow finding\nstderr: %s", code, ExitFindings, stderr)
	}
}
