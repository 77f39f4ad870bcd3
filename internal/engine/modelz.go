package engine

// The GET /modelz handshake: the one HTTP request a front sends a peer. It
// runs at dial time (NewRemote), on every Warm, and on every fleet
// re-admission probe, and it tells the front everything it needs before
// routing traffic to the peer: the wire version, the socket listener that
// carries the traffic (sockwire.go), the engine, its input resolution, and
// the peer daemon's identity.

import (
	"encoding/json"
	"net/http"
)

// ModelzInfo is the GET /modelz handshake payload: everything a proxy needs
// to validate a peer before routing traffic to it.
type ModelzInfo struct {
	// WireVersion is the wire version the peer speaks. A proxy refuses a
	// peer whose version differs from its own at dial time, because every
	// chunk would deterministically fail open otherwise.
	WireVersion int `json:"wire_version"`
	// WireAddr is the peer's socket-wire listener ("host:port"; an empty or
	// wildcard host is resolved against the peer's HTTP host). Empty means
	// the peer runs no listener (percival-serve without -wire-listen) and
	// cannot serve a front.
	WireAddr string `json:"wire_addr,omitempty"`
	// Engine is the backend the wire listener scores with.
	Engine string `json:"engine"`
	// InputRes is that backend's network input resolution; a proxy refuses
	// a peer whose resolution differs from its own pre-processing contract.
	InputRes int `json:"input_res"`
	// Threshold is the peer's ad-probability blocking threshold.
	Threshold float64 `json:"threshold"`
	// Backends lists the peer's registry entries.
	Backends []string `json:"backends,omitempty"`
	// InstanceID is the serving daemon's per-process identity (random at
	// startup). Dialers compare it against their own to reject self-dials
	// — an address looping back to the dialing daemon would proxy chunks
	// into itself recursively. Empty from peers without an identity.
	InstanceID string `json:"instance_id,omitempty"`
}

// ModelzHandlerID serves GET /modelz for a peer whose wire listener is
// bound at wireAddr ("" when it runs none) and scores with def. reg may be
// nil for a single-engine peer; instanceID is the daemon's per-process
// identity ("" for none).
func ModelzHandlerID(reg *Registry, def Backend, threshold float64, wireAddr, instanceID string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var names []string
		if reg != nil {
			names = reg.Names()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ModelzInfo{
			WireVersion: wireVersion,
			WireAddr:    wireAddr,
			Engine:      def.Name(),
			InputRes:    def.InputRes(),
			Threshold:   threshold,
			Backends:    names,
			InstanceID:  instanceID,
		})
	}
}
