package engine

import (
	"strings"
	"testing"
)

// TestDecodeAdminPeerRequest pins the strict-decode contract: valid bodies
// round-trip, and every rejection class — empty, schemeless garbage,
// unknown fields (the retired transport pin included), trailing data — is
// an error, not a zero-value request that mutates topology.
func TestDecodeAdminPeerRequest(t *testing.T) {
	req, err := DecodeAdminPeerRequest(strings.NewReader(`{"addr":"h1:8093"}`))
	if err != nil || req.Addr != "h1:8093" {
		t.Fatalf("plain addr: %+v, %v", req, err)
	}
	req, err = DecodeAdminPeerRequest(strings.NewReader(`{"addr":"http://h1:8093"}`))
	if err != nil || req.Addr != "http://h1:8093" {
		t.Fatalf("full addr: %+v, %v", req, err)
	}
	for name, body := range map[string]string{
		"empty object":    `{}`,
		"blank addr":      `{"addr":"  "}`,
		"bad scheme":      `{"addr":"ftp://h1:8093"}`,
		"no host":         `{"addr":"http://"}`,
		"transport field": `{"addr":"h1:8093","transport":"socket"}`,
		"unknown field":   `{"addr":"h1:8093","evil":true}`,
		"trailing data":   `{"addr":"h1:8093"}{"addr":"h2:8093"}`,
		"not json":        `addr=h1`,
		"wrong addr type": `{"addr":42}`,
	} {
		if _, err := DecodeAdminPeerRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted: %s", name, body)
		}
	}
}

// TestDecodeAdminCanaryRequest pins the canary body's range checks.
func TestDecodeAdminCanaryRequest(t *testing.T) {
	req, err := DecodeAdminCanaryRequest(strings.NewReader(
		`{"candidate":"int8","fraction":0.1,"floor":0.995,"hold_window":128,"min_samples":32}`))
	if err != nil || req.Candidate != "int8" || req.HoldWindow != 128 {
		t.Fatalf("valid body: %+v, %v", req, err)
	}
	for name, body := range map[string]string{
		"no candidate":     `{"fraction":0.1}`,
		"fraction > 1":     `{"candidate":"x","fraction":1.5}`,
		"negative floor":   `{"candidate":"x","floor":-0.1}`,
		"window too large": `{"candidate":"x","hold_window":1048577}`,
		"negative samples": `{"candidate":"x","min_samples":-1}`,
		"unknown field":    `{"candidate":"x","promote_now":true}`,
	} {
		if _, err := DecodeAdminCanaryRequest(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted: %s", name, body)
		}
	}
}

// FuzzAdminRequest drives both admin decoders with arbitrary bytes. They
// parse the authenticated-but-network-reachable control-plane bodies, so
// the contract is: never panic, never allocate past the body cap, and
// anything that does decode satisfies the validated invariants (a parseable
// peer address, knobs inside their ranges) — a fuzzer-found violation here
// is a topology mutation a hostile admin payload could have caused.
func FuzzAdminRequest(f *testing.F) {
	f.Add([]byte(`{"addr":"h1:8093"}`))
	f.Add([]byte(`{"addr":"https://h1:8093","transport":"auto"}`))
	f.Add([]byte(`{"candidate":"int8","fraction":0.05,"floor":0.99,"hold_window":256,"min_samples":64}`))
	f.Add([]byte(`{"addr":42}`))
	f.Add([]byte(`{"candidate":"x","hold_window":-1}`))
	f.Add([]byte(`{"addr":"h1:8093"}garbage`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeAdminPeerRequest(strings.NewReader(string(data))); err == nil {
			if strings.TrimSpace(req.Addr) == "" {
				t.Fatalf("decoded peer request with blank addr: %+v", req)
			}
		}
		if req, err := DecodeAdminCanaryRequest(strings.NewReader(string(data))); err == nil {
			if strings.TrimSpace(req.Candidate) == "" {
				t.Fatalf("decoded canary request with blank candidate: %+v", req)
			}
			if req.Fraction < 0 || req.Fraction > 1 || req.Floor < 0 || req.Floor > 1 {
				t.Fatalf("decoded canary request outside [0,1]: %+v", req)
			}
			if req.HoldWindow < 0 || req.HoldWindow > adminMaxWindow ||
				req.MinSamples < 0 || req.MinSamples > adminMaxWindow {
				t.Fatalf("decoded canary request outside window bounds: %+v", req)
			}
		}
	})
}
