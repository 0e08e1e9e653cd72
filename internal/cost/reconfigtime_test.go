package cost

import (
	"math"
	"testing"
)

func techByName(t *testing.T, name string) OCSTechnology {
	t.Helper()
	for _, x := range Technologies() {
		if x.Name == name {
			return x
		}
	}
	t.Fatalf("no technology %q", name)
	return OCSTechnology{}
}

func TestMEMSReconfigIsBatchParallel(t *testing.T) {
	mems := techByName(t, "MEMS")
	one := mems.ReconfigTime(1)
	many := mems.ReconfigTime(64)
	if many != one {
		t.Fatalf("MEMS batch %v != single %v: mirrors move in parallel", many, one)
	}
}

func TestRoboticReconfigSerializes(t *testing.T) {
	rob := techByName(t, "Robotic")
	if rob.ReconfigTime(64) != 64*rob.SwitchingTime {
		t.Fatal("robotic switching should serialize")
	}
}

func TestPodReconfigComparison(t *testing.T) {
	// The full pod: 3072 circuits over 48 switches, per Table C.1 technology.
	cmp := map[string]float64{}
	for _, tech := range Technologies() {
		cmp[tech.Name] = tech.PodReconfigTime(3072, 48)
	}
	// MEMS: a full-pod reslice completes in milliseconds; the robotic
	// panel needs 64 serialized moves per switch at a minute each ≈ an
	// hour — operationally unusable for slice scheduling.
	if cmp["MEMS"] > 0.1 {
		t.Fatalf("MEMS pod reconfig = %v s", cmp["MEMS"])
	}
	if cmp["Robotic"] < 1800 {
		t.Fatalf("robotic pod reconfig = %v s, implausibly fast", cmp["Robotic"])
	}
	if cmp["MEMS"] >= cmp["Robotic"] {
		t.Fatal("MEMS should reconfigure faster than robotic")
	}
}

func TestReconfigEdgeCases(t *testing.T) {
	mems := techByName(t, "MEMS")
	if mems.ReconfigTime(0) != 0 {
		t.Fatal("zero circuits should be free")
	}
	if !math.IsInf(mems.PodReconfigTime(10, 0), 1) {
		t.Fatal("zero switches should be infinite")
	}
}
