package ctlrpc

// Fleet-scoped methods NewFleetServer registers (cmd/lwfleetd). They ride
// the same NDJSON framing as the per-fabric methods; MethodWatch upgrades the
// connection to a server-push event stream (every subsequent Response
// carries one event under the watch request's ID).
const (
	MethodFleetStatus = "fleet-status"
	MethodApplyIntent = "apply-intent"
	MethodDrain       = "drain"
	MethodUndrain     = "undrain"
	MethodWatch       = "watch"
)

// SliceIntentSpec is one slice's desired state inside an apply-intent call.
type SliceIntentSpec struct {
	Name  string `json:"name"`
	Shape [3]int `json:"shape"`
	// Cubes optionally pins placement; empty lets the pod place the slice.
	Cubes []int `json:"cubes,omitempty"`
	// Remove drops the slice from the desired state instead.
	Remove bool `json:"remove,omitempty"`
}

// ApplyIntentParams updates one pod's desired slice set.
type ApplyIntentParams struct {
	Pod    string            `json:"pod"`
	Slices []SliceIntentSpec `json:"slices"`
	// Replace swaps the pod's entire desired set for the given slices
	// (Remove entries are illegal) instead of merging.
	Replace bool `json:"replace,omitempty"`
}

// ApplyIntentResult acknowledges an intent update.
type ApplyIntentResult struct {
	Accepted int `json:"accepted"`
}

// DrainParams addresses a pod, or one OCS within it when OCS is set.
type DrainParams struct {
	Pod string `json:"pod"`
	OCS *int   `json:"ocs,omitempty"`
}

// WatchAck acknowledges a watch request before the event stream begins.
type WatchAck struct {
	Watching bool `json:"watching"`
}

// WatchEvent is one fleet event on a watch stream.
type WatchEvent struct {
	Seq        uint64 `json:"seq"`
	UnixMillis int64  `json:"unixMillis"`
	Pod        string `json:"pod"`
	Type       string `json:"type"`
	Slice      string `json:"slice,omitempty"`
	Detail     string `json:"detail,omitempty"`
}
