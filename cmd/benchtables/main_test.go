package main

import (
	"reflect"
	"testing"

	"repro/internal/bench"
)

// TestBlocksFanOutLUBMScales: every LUBM table and figure but Table 2
// yields one block per -lubm scale, in scale order; the rest yield one.
func TestBlocksFanOutLUBMScales(t *testing.T) {
	s := bench.Scales{LUBM: []int{1, 4, 16}}
	cases := []struct {
		kind, id string
		want     []string
	}{
		{"table", "2", []string{"table 2"}},
		{"table", "3", []string{"table 3 @ LUBM-1", "table 3 @ LUBM-4", "table 3 @ LUBM-16"}},
		{"table", "4", []string{"table 4"}},
		{"table", "7", []string{"table 7 @ LUBM-1", "table 7 @ LUBM-4", "table 7 @ LUBM-16"}},
		{"fig", "6", []string{"fig 6 @ LUBM-1", "fig 6 @ LUBM-4", "fig 6 @ LUBM-16"}},
		{"fig", "15", []string{"fig 15 @ LUBM-1", "fig 15 @ LUBM-4", "fig 15 @ LUBM-16"}},
		{"fig", "16", []string{"fig 16 @ LUBM-1", "fig 16 @ LUBM-4", "fig 16 @ LUBM-16"}},
		{"fig", "99", nil},
	}
	for _, tc := range cases {
		var got []string
		for _, b := range blocks(s, func(kind, id string) bool { return kind == tc.kind && id == tc.id }) {
			got = append(got, b.label)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %s: blocks %v, want %v", tc.kind, tc.id, got, tc.want)
		}
	}
	if n := len(blocks(s, func(string, string) bool { return true })); n != 5+5*len(s.LUBM) {
		t.Errorf("-all: %d blocks, want %d", n, 5+5*len(s.LUBM))
	}
}
