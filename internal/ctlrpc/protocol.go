// Package ctlrpc is the fabric's SDN control protocol: a newline-delimited
// JSON request/response protocol over TCP, mirroring how the production
// OCSes "receive port connection commands from the control plane" (§3.2.2)
// through the same management-plane interfaces as the rest of the network
// infrastructure. The server wraps a core.Fabric; the client provides typed
// calls for tooling such as cmd/lwfctl.
package ctlrpc

import "encoding/json"

// Request is one control-plane call.
type Request struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// Response is the reply to a Request with the same ID.
type Response struct {
	ID     uint64          `json:"id"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Method names.
const (
	MethodStatus      = "status"
	MethodCompose     = "compose"
	MethodDestroy     = "destroy"
	MethodEnsure      = "ensure"
	MethodSlice       = "slice"
	MethodFailCube    = "fail-cube"
	MethodRepairCube  = "repair-cube"
	MethodInstallCube = "install-cube"
	MethodObserveBER  = "observe-ber"
	MethodReshape     = "reshape"
	MethodMetrics     = "metrics"
	MethodRepairLink  = "repair-link"
	MethodTEStatus    = "te-status"
)

// errRequestTooLarge is the wire error text for a request line exceeding
// the server's size cap. The oversized line is drained and the connection
// stays usable.
const errRequestTooLarge = "request too large"

// RepairLinkParams addresses a cube's fiber pair on one OCS.
type RepairLinkParams struct {
	OCS  int `json:"ocs"`
	Cube int `json:"cube"`
}

// RepairLinkResult reports the spare port now carrying the fibers.
type RepairLinkResult struct {
	SparePort int `json:"sparePort"`
}

// MetricsResult carries the registry's text exposition.
type MetricsResult struct {
	Text string `json:"text"`
}

// ReshapeParams requests an in-place slice reshape; Cubes may be empty to
// reuse the slice's current cubes.
type ReshapeParams struct {
	Name  string `json:"name"`
	Shape [3]int `json:"shape"`
	Cubes []int  `json:"cubes,omitempty"`
}

// StatusResult reports fabric state.
type StatusResult struct {
	InstalledCubes int      `json:"installedCubes"`
	FreeCubes      []int    `json:"freeCubes"`
	Slices         []string `json:"slices"`
	TotalCircuits  int      `json:"totalCircuits"`
}

// ComposeParams requests slice composition.
type ComposeParams struct {
	Name  string `json:"name"`
	Shape [3]int `json:"shape"`
	Cubes []int  `json:"cubes"`
}

// SliceResult describes a slice.
type SliceResult struct {
	Name          string  `json:"name"`
	Shape         [3]int  `json:"shape"`
	Cubes         []int   `json:"cubes"`
	Circuits      int     `json:"circuits"`
	WorstMarginDB float64 `json:"worstMarginDb"`
}

// NameParams addresses a slice by name. IfPresent makes a destroy of an
// absent slice succeed as a no-op (reconciler idempotency); it is ignored
// by the other name-addressed methods.
type NameParams struct {
	Name      string `json:"name"`
	IfPresent bool   `json:"ifPresent,omitempty"`
}

// EnsureParams drives core.Fabric.EnsureSlice over the wire: make the
// named slice exist with the given shape. An empty cube list reuses an
// existing slice's cubes and is an error for a new slice.
type EnsureParams struct {
	Name  string `json:"name"`
	Shape [3]int `json:"shape"`
	Cubes []int  `json:"cubes,omitempty"`
}

// EnsureResult reports the ensured slice and whether hardware changed.
type EnsureResult struct {
	Slice   SliceResult `json:"slice"`
	Changed bool        `json:"changed"`
}

// CubeParams addresses a cube.
type CubeParams struct {
	Cube int `json:"cube"`
}

// FailCubeResult reports the outcome of a cube failure.
type FailCubeResult struct {
	// Replacement is the cube swapped in, or -1 when no slice was
	// affected.
	Replacement int `json:"replacement"`
}

// ObserveBERParams feeds a BER telemetry sample.
type ObserveBERParams struct {
	OCS  int     `json:"ocs"`
	Port int     `json:"port"`
	BER  float64 `json:"ber"`
}

// ObserveBERResult reports whether the sample was anomalous.
type ObserveBERResult struct {
	Anomalous bool `json:"anomalous"`
}
