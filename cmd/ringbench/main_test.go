package main

import "testing"

// TestAllExperimentsQuick runs every experiment in quick mode: the
// harness is the artifact that regenerates the paper's tables, so it gets
// the same regression protection as the library. It ranges over the
// experiment table itself, so a new experiment cannot be left untested.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range paperOrder {
		if experiments[name] == nil {
			t.Errorf("-exp all names %q, which is not in the experiment table", name)
		}
	}
	for name, f := range experiments {
		t.Run(name, func(t *testing.T) {
			if err := f(1, true); err != nil {
				t.Fatalf("experiment %s: %v", name, err)
			}
		})
	}
}
