package analysis

// SARIF 2.1.0 output for drevallint, so CI can upload findings as
// code-scanning annotations. The encoding is deliberately minimal and
// byte-stable: rules sorted by check name, results in the runner's
// deterministic diagnostic order, file URIs module-root-relative under
// the %SRCROOT% base, and json.MarshalIndent with fixed struct field
// order. Byte-stability is tested (TestSARIFDeterministic).

import (
	"encoding/json"
	"path/filepath"
	"sort"
)

const sarifSchema = "https://json.schemastore.org/sarif-2.1.0.json"

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           *sarifRegion  `json:"region,omitempty"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders diagnostics as a SARIF 2.1.0 log. analyzers supplies
// the rule table (every check that ran, found something or not); root
// is the module root that file paths are made relative to. The output
// is byte-stable for identical inputs.
func SARIF(diags []Diagnostic, analyzers []*Analyzer, root string) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	// The runner's own meta-findings (malformed //lint:allow) carry the
	// "lint" check; load errors carry "load".
	rules = append(rules,
		sarifRule{ID: "lint", ShortDescription: sarifText{Text: "malformed or unexplained //lint:allow suppression"}},
		sarifRule{ID: "load", ShortDescription: sarifText{Text: "package failed to parse or type-check"}},
	)
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
	index := map[string]int{}
	for i, r := range rules {
		index[r.ID] = i
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := index[d.Check]
		if !ok {
			idx = 0
		}
		res := sarifResult{
			RuleID:    d.Check,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifText{Text: d.Message},
		}
		if d.File != "" {
			phys := sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relURI(root, d.File), URIBaseID: "%SRCROOT%"},
			}
			if d.Line > 0 {
				phys.Region = &sarifRegion{StartLine: d.Line, StartColumn: d.Col}
			}
			res.Locations = []sarifLocation{{PhysicalLocation: phys}}
		}
		results = append(results, res)
	}

	log := sarifLog{
		Schema:  sarifSchema,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "drevallint", Rules: rules}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(&log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// relURI renders file relative to root with forward slashes; files
// outside root (or when root is empty) keep their slashed path.
func relURI(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
