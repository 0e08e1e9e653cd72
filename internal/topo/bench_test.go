package topo

import "testing"

func BenchmarkRequiredCircuitsFullPod(b *testing.B) {
	cubes := make([]int, 64)
	for i := range cubes {
		cubes[i] = i
	}
	sl, err := ComposeSlice(Shape{X: 16, Y: 16, Z: 16}, cubes)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if got := sl.RequiredCircuits(); len(got) != 3072 {
			b.Fatal("wrong circuit count")
		}
	}
}

func BenchmarkShapesFor64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := ShapesFor(64); len(got) == 0 {
			b.Fatal("no shapes")
		}
	}
}
