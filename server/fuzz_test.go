package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"distcover"
	"distcover/server"
	"distcover/server/api"
)

// FuzzSolveRequest throws arbitrary bodies at POST /v1/solve. The server
// must answer 200, 400, 413 or 422 without panicking, and a 200 must hold
// a valid answer: for an instance, a cover of it under its content hash;
// for an ILP, a feasible solution.
func FuzzSolveRequest(f *testing.F) {
	const (
		instance = `"instance":{"weights":[3,1,4],"edges":[[0,1],[1,2],[0,2]]}`
		ilp      = `"ilp":{"weights":[3,2,4],"constraints":[{"vars":[0,1],"coefs":[1,1],"bound":1},{"vars":[1,2],"coefs":[1,1],"bound":2}]}`
	)
	for _, seed := range []string{
		`{` + instance + `,"options":{"epsilon":0.5}}`,
		`{` + instance + `,"options":{"engine":"congest","f_approx":true}}`,
		`{` + instance + `,"options":{"engine":"cluster","partitions":2}}`,
		`{` + ilp + `}`,
		`{` + instance + `,` + ilp + `}`,
		`{}`,
		`{"options":{"engine":"flat"}}`,
		`{"instance":null}`,
		`{"instance":null,` + ilp + `}`,
		`{"instance":{}}`,
		`{"instance":`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	srv := server.New(server.Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 1 << 16})
	hs := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decode the body the way the server does, to know what it asked.
		var req api.SolveRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		if decoded && req.Async {
			return // 202 and a background job: not this target's contract
		}
		resp, err := http.Post(hs.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d: %s", resp.StatusCode, out)
		}
		if !decoded {
			t.Fatalf("200 for a body that does not decode: %s", out)
		}
		var res api.SolveResult
		if err := json.Unmarshal(out, &res); err != nil {
			t.Fatalf("200 with an undecodable body %s: %v", out, err)
		}
		if req.ILP != nil {
			p := distcover.NewILP(req.ILP.Weights)
			for _, c := range req.ILP.Constraints {
				if err := p.AddConstraint(c.Vars, c.Coefs, c.Bound); err != nil {
					t.Fatalf("200 for an ILP the library rejects: %v", err)
				}
			}
			if !p.IsFeasible(res.X) {
				t.Fatalf("infeasible ILP solution %v", res.X)
			}
			return
		}
		inst, err := distcover.ReadInstance(bytes.NewReader(req.Instance))
		if err != nil {
			t.Fatalf("200 for an instance the library rejects: %v", err)
		}
		if !inst.IsCover(res.Cover) {
			t.Fatalf("cover %v does not cover the instance", res.Cover)
		}
		if res.InstanceHash != inst.Hash() {
			t.Fatalf("instance_hash %s, want %s", res.InstanceHash, inst.Hash())
		}
	})
}
