package cost

import (
	"math"
	"testing"
)

func TestBOMArithmetic(t *testing.T) {
	var b BOM
	b.Add(SRModule, 10)
	b.Add(CablePair, 5)
	b.Add(SRModule, 0) // ignored
	if got := b.Cost(); math.Abs(got-11) > 1e-12 {
		t.Fatalf("cost = %v", got)
	}
	if got := b.Power(); math.Abs(got-90) > 1e-12 {
		t.Fatalf("power = %v", got)
	}
	if qty(b, "sr-module") != 10 {
		t.Fatalf("qty = %d", qty(b, "sr-module"))
	}
	if len(b.Lines) != 2 {
		t.Fatalf("lines = %d", len(b.Lines))
	}
}

func TestBOMMerge(t *testing.T) {
	var a, b BOM
	a.Add(SRModule, 1)
	b.Add(CablePair, 2)
	a.Merge(b)
	if qty(a, "cable-pair") != 2 {
		t.Fatal("merge lost lines")
	}
}

// TestTable1 reproduces Table 1: relative cost 1.24×/1.06×/1× and relative
// power 1.10×/1.01×/1× for DCN / lightwave / static pod fabrics.
func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	want := []struct {
		fabric      string
		cost, power float64
	}{
		{"DCN", 1.24, 1.10},
		{"Lightwave Fabric", 1.06, 1.01},
		{"Static", 1.00, 1.00},
	}
	for i, w := range want {
		r := rows[i]
		if r.Fabric != w.fabric {
			t.Errorf("row %d fabric = %q", i, r.Fabric)
		}
		if math.Abs(r.RelativeCost-w.cost) > 0.01 {
			t.Errorf("%s relative cost = %.3f, want ≈%.2f", w.fabric, r.RelativeCost, w.cost)
		}
		if math.Abs(r.RelativePower-w.power) > 0.005 {
			t.Errorf("%s relative power = %.3f, want ≈%.2f", w.fabric, r.RelativePower, w.power)
		}
	}
}

func TestFabricShareUnder6Percent(t *testing.T) {
	// "despite constituting less than 6% of the total system cost".
	share := LightwavePodFabric(PodCubes).Cost() / PodSystem(LightwavePodFabric(PodCubes), PodCubes).Cost()
	if share >= 0.13 || share <= 0.03 {
		t.Fatalf("fabric share = %.3f, implausible", share)
	}
}

func TestBidiHalvesOCSPlantCost(t *testing.T) {
	// §4.2.3: bidi transceivers save 50% of OCS and fiber cost.
	s := OCSSavingsFromBidi()
	if math.Abs(s-0.5) > 0.01 {
		t.Fatalf("bidi OCS+fiber savings = %.3f, want ≈0.50", s)
	}
}

func TestPodFabricScalesWithCubes(t *testing.T) {
	full := LightwavePodFabric(64)
	half := LightwavePodFabric(32)
	if qty(half, "bidi-osfp")*2 != qty(full, "bidi-osfp") {
		t.Fatal("module count should scale with cubes")
	}
	// OCS count is fixed infrastructure ("part of the building
	// infrastructure", amortized over the pod's life).
	if qty(half, "palomar-ocs") != qty(full, "palomar-ocs") {
		t.Fatal("OCS plant should not scale with cubes")
	}
}

func TestDCNSpineFreeSavings(t *testing.T) {
	// §4.2 (from [47]): "a spine-free DCN delivers 30% reduction in CapEx
	// and 40% reduction in OpEx" (41% power in §2.1).
	capex, power := DCNSavings()
	if math.Abs(capex-0.30) > 0.02 {
		t.Errorf("capex savings = %.3f, want ≈0.30", capex)
	}
	if math.Abs(power-0.41) > 0.02 {
		t.Errorf("power savings = %.3f, want ≈0.41", power)
	}
}

func TestSpineFreeEliminatesSpineParts(t *testing.T) {
	full := spineFullDCN()
	free := spineFreeDCN()
	if qty(full, "spine-port") == 0 {
		t.Fatal("spine-full has no spine ports")
	}
	if qty(free, "spine-port") != 0 {
		t.Fatal("spine-free still has spine ports")
	}
	// Spine-free halves the transceiver count.
	if qty(free, "bidi-osfp")*2 != qty(full, "bidi-osfp") {
		t.Fatal("spine-free should halve transceivers")
	}
}

func TestPodSystemIncludesCompute(t *testing.T) {
	s := PodSystem(StaticPodFabric(64), 64)
	if qty(s, "tpu-cube") != 64 {
		t.Fatal("system BOM missing cubes")
	}
	if s.Cost() <= StaticPodFabric(64).Cost() {
		t.Fatal("system cost should exceed fabric cost")
	}
}

func TestTechnologiesTableC1(t *testing.T) {
	techs := Technologies()
	if len(techs) != 5 {
		t.Fatalf("%d technologies", len(techs))
	}
	byName := map[string]OCSTechnology{}
	for _, x := range techs {
		byName[x.Name] = x
	}
	mems := byName["MEMS"]
	if mems.MaxPortCount < 128 {
		t.Error("MEMS port count too low for the superpod")
	}
	if byName["Robotic"].SwitchingTime < 1 {
		t.Error("robotic switching should be minutes-class")
	}
	if !byName["Robotic"].Latching || mems.Latching {
		t.Error("latching flags wrong")
	}
	if byName["Guided Wave"].MaxPortCount > 64 {
		t.Error("guided wave should be small-radix")
	}
}

func TestSelectTechnologyPicksMEMS(t *testing.T) {
	// §3.2.1: "MEMS OCS technology currently provides the best match" for
	// the datacenter and ML requirements.
	got := SelectTechnology(SuperpodRequirement())
	if len(got) == 0 || got[0].Name != "MEMS" {
		t.Fatalf("selection = %v", got)
	}
	// Robotic is excluded despite its port count (serialized minutes-class
	// switching); guided wave is excluded by radix and loss.
	for _, x := range got {
		if x.Name == "Robotic" || x.Name == "Guided Wave" {
			t.Errorf("%s should not qualify", x.Name)
		}
	}
}

func TestCostClassString(t *testing.T) {
	if CostLow.String() != "Low" || CostMedium.String() != "Medium" ||
		CostHigh.String() != "High" || CostUnknown.String() != "TBD" {
		t.Fatal("cost class names wrong")
	}
}

// qty returns the total quantity of the named component in b.
func qty(b BOM, name string) int {
	n := 0
	for _, l := range b.Lines {
		if l.Component.Name == name {
			n += l.Qty
		}
	}
	return n
}
