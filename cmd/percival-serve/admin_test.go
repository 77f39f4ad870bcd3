package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"percival/internal/engine"
	"percival/internal/serve"
	"percival/internal/synth"
)

// adminReq fires one authenticated admin call and decodes the JSON reply.
func adminReq(t testing.TB, method, url, token string, body string) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestAdminPeerLifecycle is the control plane's e2e smoke, CI's admin
// gate: a front under live load adds a peer, drains and removes another,
// and runs an agreement-gated canary to promotion — all through the
// authenticated HTTP surface, with every verdict correct and zero
// fail-open throughout.
func TestAdminPeerLifecycle(t *testing.T) {
	const token = "t0p-s3cret"
	svc := testService(t)
	reg := svc.Backends()

	// three backend daemons; the third joins live via the admin API
	peerURLs := make([]string, 3)
	for i := range peerURLs {
		peerURLs[i] = startWirePeer(t, svc, nil).URL
	}

	dial := engine.RemoteOptions{ExpectRes: svc.InputRes(), Timeout: 2 * time.Second, Retries: 2}
	var remotes []*engine.RemoteBackend
	for _, u := range peerURLs[:2] {
		rb, err := engine.NewRemote(u, dial)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(rb.Name(), rb); err != nil {
			t.Fatal(err)
		}
		remotes = append(remotes, rb)
	}
	fleet, err := engine.NewFleet(remotes, engine.FleetOptions{
		EvictAfter:    50,
		HedgeQuantile: -1,
		Router:        &engine.WeightedRouter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	serving := engine.NewCanaryBackend(reg, fleet)
	srv, err := serve.New(svc, serve.Options{Shards: 2, MaxBatch: 4, Backend: serving})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// the front also serves the socket wire, as a -wire-listen daemon does,
	// so pointing it at itself reaches the self-dial guard
	instanceID := newInstanceID()
	wire, wireAddr, err := listenWire("127.0.0.1:0", svc.Engine(), srv)
	if err != nil {
		t.Fatal(err)
	}
	defer wire.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /classify", classifyHandler(srv, reg, fleet))
	mux.Handle("GET /modelz", engine.ModelzHandlerID(reg, svc.Engine(), svc.Threshold(), wireAddr, instanceID))
	mux.HandleFunc("GET /healthz", healthHandler(srv, reg, fleet.Name(), nil))
	admin := &adminAPI{
		token: token, reg: reg, fleet: fleet, srv: srv,
		localID: instanceID, threshold: svc.Threshold(),
		drainWait: 3 * time.Second, dialTmpl: dial,
	}
	admin.mount(mux)
	front := httptest.NewServer(mux)
	defer front.Close()
	adminURL := front.URL + "/admin"

	// auth: no token and a wrong token are both 401 before any mutation
	if code, _ := adminReq(t, "GET", adminURL+"/topology", "", ""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated topology: %d", code)
	}
	if code, _ := adminReq(t, "POST", adminURL+"/peers", "wrong", `{"addr":"h:1"}`); code != http.StatusUnauthorized {
		t.Fatalf("wrong-token peer add: %d", code)
	}

	// Live load for the whole membership + canary sequence. A fixed frame
	// set is verified against in-process scores; every iteration also posts
	// fresh frames (unique seeds), which miss the verdict cache and keep
	// real dispatch — and therefore canary shadow samples — flowing.
	fixed := synth.SampleFrames(61, 6)
	wants := make([]float64, len(fixed))
	for i, f := range fixed {
		wants[i] = svc.Classify(f)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				fresh := synth.SampleFrames(int64(1000+lane*1_000_000+round), 2)
				for i, f := range append(fresh, fixed...) {
					resp, err := http.Post(
						fmt.Sprintf("%s/classify?w=%d&h=%d", front.URL, f.W, f.H),
						"application/octet-stream", bytes.NewReader(f.Pix))
					if err != nil {
						t.Errorf("live load: %v", err)
						return
					}
					var v verdict
					err = json.NewDecoder(resp.Body).Decode(&v)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("live load: status %d, decode %v", resp.StatusCode, err)
						return
					}
					if i >= len(fresh) && v.Score != wants[i-len(fresh)] {
						t.Errorf("live load: frame %d scored %v, want %v",
							i-len(fresh), v.Score, wants[i-len(fresh)])
						return
					}
				}
			}
		}(g)
	}

	// self-dial guard: pointing the front at itself must be rejected
	code, body := adminReq(t, "POST", adminURL+"/peers", token,
		fmt.Sprintf(`{"addr":%q}`, strings.TrimPrefix(front.URL, "http://")))
	if code != http.StatusBadRequest {
		t.Fatalf("self-dial add: %d %v", code, body)
	}

	// a peer running no wire listener cannot join: the dial error names
	// the flag it is missing
	bareMux := http.NewServeMux()
	bareMux.Handle("GET /modelz", engine.ModelzHandlerID(nil, svc.Engine(), svc.Threshold(), "", ""))
	bare := httptest.NewServer(bareMux)
	defer bare.Close()
	code, body = adminReq(t, "POST", adminURL+"/peers", token, fmt.Sprintf(`{"addr":%q}`, bare.URL))
	if code != http.StatusBadGateway || !strings.Contains(fmt.Sprint(body["error"]), "-wire-listen") {
		t.Fatalf("listener-less peer add: %d %v, want 502 naming -wire-listen", code, body)
	}

	// live add of the third peer
	code, body = adminReq(t, "POST", adminURL+"/peers", token,
		fmt.Sprintf(`{"addr":%q}`, peerURLs[2]))
	if code != http.StatusOK {
		t.Fatalf("peer add: %d %v", code, body)
	}
	code, top := adminReq(t, "GET", adminURL+"/topology", token, "")
	if code != http.StatusOK || len(top["peers"].([]any)) != 3 {
		t.Fatalf("topology after add: %d %v", code, top)
	}
	if top["router"] != "weighted" {
		t.Fatalf("topology router %v", top["router"])
	}

	// drain + remove the first peer under load: zero fail-open required
	id := strings.TrimPrefix(peerURLs[0], "http://")
	code, body = adminReq(t, "DELETE", adminURL+"/peers/"+id, token, "")
	if code != http.StatusOK {
		t.Fatalf("peer remove: %d %v", code, body)
	}
	if code, _ := adminReq(t, "DELETE", adminURL+"/peers/"+id, token, ""); code == http.StatusOK {
		t.Fatal("removed the same peer twice")
	}
	_, top = adminReq(t, "GET", adminURL+"/topology", token, "")
	if len(top["peers"].([]any)) != 2 {
		t.Fatalf("topology after remove: %v", top)
	}

	// agreement-gated canary to promotion, driven only by live agreement:
	// the candidate shares the incumbent's weights, so it must promote
	cand := svc.Engine().Replicate()
	if err := reg.Register("canary-cand", cand); err != nil {
		t.Fatal(err)
	}
	code, body = adminReq(t, "POST", adminURL+"/canary", token,
		`{"candidate":"canary-cand","fraction":1,"floor":0.99,"hold_window":16,"min_samples":8}`)
	if code != http.StatusOK {
		t.Fatalf("canary begin: %d %v", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, top = adminReq(t, "GET", adminURL+"/topology", token, "")
		state := top["canary"].(map[string]any)["state"]
		if state == "promoted" {
			break
		}
		if state == "rolled_back" {
			t.Fatalf("agreeing canary rolled back: %v", top["canary"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("canary never promoted: %v", top["canary"])
		}
		time.Sleep(20 * time.Millisecond)
	}
	if reg.DefaultName() != "canary-cand" {
		t.Fatalf("default %q after promotion", reg.DefaultName())
	}

	close(stop)
	wg.Wait()

	// zero fail-open across the whole sequence, visible on /healthz
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		EngineErrors int64 `json:"engine_errors"`
	}
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.EngineErrors != 0 {
		t.Fatalf("engine_errors %d after membership churn (fail-open leaked)", h.EngineErrors)
	}
	if st := fleet.Stats(); st.Errors != 0 {
		t.Fatalf("fleet fail-open errors: %+v", st)
	}
}
