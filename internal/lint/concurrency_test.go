package lint

import (
	"strings"
	"testing"
)

// TestLockHeldFixture runs the blocking-under-mutex analyzer over its
// golden fixture.
func TestLockHeldFixture(t *testing.T) {
	t.Parallel()
	prog := loadProgram(t, false, "lockheld")
	pkg := progPkg(t, prog, "lockheld")
	diags := Run(pkg, []*Analyzer{LockHeld})
	matchWants(t, wantsIn(t, pkg), diags)

	// The transitive finding must name the callee chain and the local
	// blocking evidence, not just the call site.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "lockheld.(*Logger).sync") {
			found = true
			if !strings.Contains(d.Message, "Sync") {
				t.Errorf("transitive finding does not name the blocking evidence: %s", d.Message)
			}
		}
	}
	if !found {
		t.Error("no transitive finding through (*Logger).sync")
	}
}
