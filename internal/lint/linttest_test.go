package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture convention follows x/tools' analysistest: each file under
// testdata/<analyzer>/ is real Go source, and a line that should produce a
// diagnostic carries a trailing
//
//	// want "regexp"
//
// comment. runFixture type-checks the directory as one package, runs a
// single analyzer over it (through Run, so //lint:allow processing is
// exercised too), and requires the produced diagnostics and the want
// annotations to match one-to-one.

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

func runFixture(t *testing.T, a *Analyzer, sub string, deps ...string) {
	t.Helper()
	dir := filepath.Join("testdata", sub)
	pkg, err := LoadDir(dir, "../..", deps...)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, dir)
	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

// matchWant consumes the first unmatched want at the diagnostic's position
// whose pattern matches its message.
func matchWant(wants []*want, d Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, m[1], err)
				}
				wants = append(wants, &want{file: path, line: line, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

func TestNoWallClockFixture(t *testing.T) {
	runFixture(t, NoWallClock, "nowallclock", "time")
}

func TestSeededRandFixture(t *testing.T) {
	runFixture(t, SeededRand, "seededrand", "math/rand", "math/rand/v2")
}

func TestNoGoroutineFixture(t *testing.T) {
	runFixture(t, NoGoroutine, "nogoroutine")
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, MapOrder, "maporder", "sort")
}

func TestWireCompleteFixture(t *testing.T) {
	runFixture(t, WireComplete, "wirecomplete")
}

func TestRetrySleepFixture(t *testing.T) {
	runFixture(t, RetrySleep, "retrysleep", "time")
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, LockOrder, "lockorder", "sync", "time")
}

func TestGuardedFieldFixture(t *testing.T) {
	runFixture(t, GuardedField, "guardedfield", "sync")
}

func TestErrDiscardFixture(t *testing.T) {
	runFixture(t, ErrDiscard, "errdiscard", "bytes", "hash/fnv", "io")
}

func TestCtxDeadlineFixture(t *testing.T) {
	runFixture(t, CtxDeadline, "ctxdeadline",
		"tell/internal/env", "tell/internal/resil", "tell/internal/transport")
}

// TestAllowFixture exercises the suppression paths: same-line allow,
// line-above allow, whole-file allow, and an allow naming the wrong
// analyzer (which must not suppress).
func TestAllowFixture(t *testing.T) {
	runFixture(t, NoWallClock, "allow", "time")
}

// TestMalformedAllowDirective: an allow without the mandatory reason is
// itself reported (pseudo-analyzer "lintdirective") and suppresses nothing.
func TestMalformedAllowDirective(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "badallow"), "../..", "time")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{NoWallClock})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (malformed directive + unsuppressed finding), got %d:\n%v", len(diags), diags)
	}
	if diags[0].Analyzer != "lintdirective" || !strings.Contains(diags[0].Message, "malformed") {
		t.Errorf("first diagnostic should report the malformed directive, got %s", diags[0])
	}
	if diags[1].Analyzer != "nowallclock" {
		t.Errorf("the malformed allow must not suppress; got %s", diags[1])
	}
}

// TestEnginePackageScope pins the analyzer scoping rules.
func TestEnginePackageScope(t *testing.T) {
	cases := map[string]bool{
		"tell/internal/core":        true,
		"tell/internal/store":       true,
		"tell/internal/wire":        true,
		"tell/internal/sim":         false,
		"tell/internal/env":         false,
		"tell/internal/testutil":    false,
		"tell/internal/lint":        false,
		"tell":                      false,
		"tell/cmd/telld":            false,
		"other/internal/thing":      false,
		"tell/internal/sim/nothing": false,
	}
	for path, wantIn := range cases {
		if got := EnginePackage(path); got != wantIn {
			t.Errorf("EnginePackage(%q) = %v, want %v", path, got, wantIn)
		}
	}
	if ByName("maporder") == nil || ByName("nope") != nil {
		t.Error("ByName lookup broken")
	}
}

// TestGatesFixture: the module under testdata/gates holds three cases that
// a gate matching names misses — a test-only method whose name a used
// method of another type shares, an interface method that only tests call
// (with its implementation), and a covered field whose only write outside
// its constructor is really a write of another type's same-named field.
func TestGatesFixture(t *testing.T) {
	pkgs, err := load(filepath.Join("testdata", "gates"), true, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(testOnlyExports(pkgs), " "), "a.Bag.Size a.Queue.Len a.Sizer.Len"; got != want {
		t.Errorf("test-only gate flags %q, want %q", got, want)
	}
	if got, want := strings.Join(oneValueSettings(pkgs), " "), "a.Config.Mode"; got != want {
		t.Errorf("one-value gate flags %q, want %q", got, want)
	}
}
