package reach_test

import (
	"os"
	"path/filepath"
	"testing"

	reach "repro"
)

// TestExampleRulesVetClean parses every .rules file shipped with the
// examples and analyzes them as one set. A rule edit that drifts into
// Table 1-invalid territory — or an engine change that re-categorizes
// an event — fails here, in tier-1, before it fails at load time in a
// demo.
func TestExampleRulesVetClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "*", "rules", "*.rules"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example rule files found; the glob or the layout moved")
	}
	az := reach.NewRuleAnalyzer()
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		decls, err := reach.ParseRules(string(src))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		az.Add(path, string(src), decls)
	}
	for _, f := range az.Run(nil).Findings {
		if f.Severity == reach.RuleError {
			t.Errorf("%s", f)
		}
	}
}
