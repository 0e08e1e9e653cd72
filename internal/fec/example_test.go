package fec_test

import (
	"fmt"

	"lightwave/internal/fec"
)

// ExampleConcatenated shows the analytic transfer of the concatenated FEC
// stack cleaning a channel the outer code alone cannot.
func ExampleConcatenated() {
	stack := fec.NewConcatenated()
	outerOnly := fec.NewKP4()

	channelBER := 1e-3 // five times the KP4 threshold
	fmt.Println(outerOnly.Transfer(channelBER) < 1e-13)
	fmt.Println(stack.Transfer(channelBER) < 1e-13)
	// Output:
	// false
	// true
}
