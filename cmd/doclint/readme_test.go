package main

import (
	"os"
	"strings"
	"testing"
)

// readmeBudget is the line budget of each top-level ("## ") section of the
// repository README, its heading included; "" is everything above the first
// one. A section grows past its budget only by raising the number here in
// the same diff. Performance is one table per rung; campaigns belong in
// CHANGES.md.
var readmeBudget = map[string]int{
	"": 27, "Quickstart": 39, "The six-step TBNet flow": 21,
	"Fleet serving": 79, "Model persistence & hot swap": 65, "Quantized serving": 48,
	"Scenario harness": 37, "Autoscaling": 75, "Network serving": 65, "Observability": 94,
	"Devices": 45, "Command line": 68, "Experiments": 22, "Security evaluation": 67,
	"Performance": 120, "Development": 40,
}

// readmeTotalBudget caps the whole file, whatever the per-section slack.
const readmeTotalBudget = 868

// TestReadmeSectionBudget holds README.md to readmeBudget and
// readmeTotalBudget; a section the table does not name fails too. Headings
// inside fenced code blocks do not open a section.
func TestReadmeSectionBudget(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) > readmeTotalBudget {
		t.Errorf("README.md is %d lines, over its budget of %d", len(lines), readmeTotalBudget)
	}
	sizes, order, section, fenced := map[string]int{}, []string{""}, "", false
	for _, line := range lines {
		fenced = fenced != strings.HasPrefix(line, "```")
		if h, ok := strings.CutPrefix(line, "## "); ok && !fenced {
			section, order = h, append(order, h)
		}
		sizes[section]++
	}
	for _, name := range order {
		if budget, ok := readmeBudget[name]; !ok {
			t.Errorf("README section %q has no line budget: add it to readmeBudget", name)
		} else if sizes[name] > budget {
			t.Errorf("README section %q is %d lines, over its budget of %d", name, sizes[name], budget)
		}
	}
}
