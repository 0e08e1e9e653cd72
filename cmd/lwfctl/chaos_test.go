package main

import (
	"strings"
	"testing"

	"lightwave/internal/ctlrpc"
)

func TestParseInject(t *testing.T) {
	cases := []struct {
		kind string
		rest []string
		want ctlrpc.ChaosInjectParams
	}{
		{"pod-loss", []string{"pod2"}, ctlrpc.ChaosInjectParams{Kind: "pod-loss", Pod: "pod2"}},
		{"pod-restore", []string{"pod2"}, ctlrpc.ChaosInjectParams{Kind: "pod-restore", Pod: "pod2"}},
		{"circuit-flap", []string{"1", "3", "45"},
			ctlrpc.ChaosInjectParams{Kind: "circuit-flap", TrunkA: 1, TrunkB: 3, DurationSeconds: 45}},
		{"ber-degrade", []string{"0", "2", "1e-3"},
			ctlrpc.ChaosInjectParams{Kind: "ber-degrade", TrunkA: 0, TrunkB: 2, BER: 1e-3, DurationSeconds: 60}},
		{"ber-degrade", []string{"0", "2", "1e-3", "30"},
			ctlrpc.ChaosInjectParams{Kind: "ber-degrade", TrunkA: 0, TrunkB: 2, BER: 1e-3, DurationSeconds: 30}},
		{"slow-drain", []string{"pod0", "7", "120"},
			ctlrpc.ChaosInjectParams{Kind: "slow-drain", Pod: "pod0", OCS: 7, DurationSeconds: 120}},
		{"stuck-drain", []string{"pod0", "7"},
			ctlrpc.ChaosInjectParams{Kind: "stuck-drain", Pod: "pod0", OCS: 7}},
	}
	for _, tc := range cases {
		got, err := parseInject(tc.kind, tc.rest)
		if err != nil {
			t.Errorf("%s %v: %v", tc.kind, tc.rest, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s %v = %+v, want %+v", tc.kind, tc.rest, got, tc.want)
		}
	}
}

func TestParseInjectErrors(t *testing.T) {
	bad := []struct {
		kind string
		rest []string
	}{
		{"warp-core-breach", nil},
		{"pod-loss", nil},
		{"circuit-flap", []string{"1", "3"}},
		{"circuit-flap", []string{"1", "x", "45"}},
		{"ber-degrade", []string{"0", "2"}},
		{"slow-drain", []string{"pod0", "7"}},
		{"stuck-drain", []string{"pod0"}},
	}
	for _, tc := range bad {
		if _, err := parseInject(tc.kind, tc.rest); err == nil {
			t.Errorf("%s %v accepted", tc.kind, tc.rest)
		}
	}
}

// TestDispatchChaosDisabled exercises the CLI against a daemon without
// -chaos: status prints the disabled form, inject surfaces the server's
// rejection.
func TestDispatchChaosDisabled(t *testing.T) {
	dial := testFleetDial(t)
	c := dial()

	if err := dispatch(c, []string{"chaos", "status"}); err != nil {
		t.Fatal(err)
	}
	err := dispatch(c, []string{"chaos", "inject", "pod-loss", "pod0"})
	if err == nil || !strings.Contains(err.Error(), "chaos injection disabled") {
		t.Fatalf("inject on disabled daemon: %v", err)
	}
	if err := dispatch(c, []string{"chaos"}); err == nil {
		t.Fatal("bare chaos accepted")
	}
	if err := dispatch(c, []string{"chaos", "bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}
