package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ule/internal/graph"
)

// FuzzElectionRequest posts arbitrary bytes to POST /v1/elections through
// NewHandler, on a Manager whose caps keep every graph and run small. Every
// answer must be a 200, a 400 or a 500, and nothing may panic. A 200 body's
// n and m must be what graph.SpecSize counts for its graph: the size check
// that admits a request and the graph the run was built on read one spec,
// and must agree. A job is asked for only by ?async=1, which is never
// posted here: a body key "async" is unknown, and its answer is a 400.
func FuzzElectionRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"ring:16","algo":"leastel","seed":3}`,
		`{"graph":"torus:4x4","algo":"kingdom-d","model":"async+random:4+crash:0.2","wake":"adversarial","max_rounds":40}`,
		`{"graph":"random:24:60","graph_seed":5,"algo":"dfs","small_ids":true}`,
		`{"graph":"ring:8","algo":"flood","anonymous":true}`,
		`{"graph":"complete:64","algo":"leastel"}`,
		`{"graph":"ring:8","algo":"leastel","max_rounds":100000}`,
		`{"graph":"ring:8","algo":"nope"}`,
		`{"graph":"ring:8","algo":"leastel","extra":1}`,
		`{"graph":"ring:8","algo":"leastel"} {}`,
		`{"graph":"ring:8","algo":"leastel","async":true}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	m := NewManager(Config{Slots: 1, MaxRounds: 64, MaxEdges: 256})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	h := NewHandler(m, HandlerConfig{})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/elections", bytes.NewReader(body)))
		var keys map[string]json.RawMessage
		if json.Unmarshal(body, &keys) == nil && keys["async"] != nil && w.Code != http.StatusBadRequest {
			t.Fatalf("status %d for %q, want 400: async is a query switch, not a body key", w.Code, body)
		}
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusInternalServerError:
			return
		default:
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body.Bytes())
		}
		var res ElectionResult
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatalf("200 body is not an ElectionResult: %v (%s)", err, w.Body.Bytes())
		}
		nodes, edges, err := graph.SpecSize(res.Graph)
		if err != nil || int64(res.N) != nodes || int64(res.M) != edges {
			t.Fatalf("graph %q ran with n=%d m=%d; SpecSize counts n=%d m=%d (err %v)", res.Graph, res.N, res.M, nodes, edges, err)
		}
	})
}
