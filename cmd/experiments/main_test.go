package main

import "testing"

// Smoke tests: every experiment must run to completion (they panic on
// internal errors). The heavyweight simulations are skipped in -short
// mode.

func TestFastExperiments(t *testing.T) {
	for _, fn := range []struct {
		name string
		run  func()
	}{
		{"fig10a", fig10a},
		{"fig10b", fig10b},
		{"fig11a", fig11a},
		{"fig12", fig12},
		{"fig13", fig13},
		{"table1", table1},
		{"table2", table2},
		{"fig15a", fig15a},
		{"fig15b", fig15b},
		{"deploy", deployExperiment},
		{"fig2", fig2Experiment},
		{"tablec1", tableC1},
		{"circulator", circulatorExperiment},
		{"wdm", wdmExperiment},
		{"reliability", reliabilityExperiment},
		{"scaleout", scaleoutExperiment},
		{"refresh", refreshExperiment},
		{"campus", campusExperiment},
	} {
		fn := fn
		t.Run(fn.name, func(t *testing.T) { fn.run() })
	}
}

func TestSlowExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping heavyweight experiments in -short mode")
	}
	for _, fn := range []struct {
		name string
		run  func()
	}{
		{"fig11b", fig11b},
		{"dcn", dcnExperiment},
		{"sched", schedExperiment},
		{"defrag", defragExperiment},
		{"te", teExperiment},
		{"chaos", chaosExperiment},
		{"crashrestart", crashRestartExperiment},
	} {
		fn := fn
		t.Run(fn.name, func(t *testing.T) { fn.run() })
	}
}
