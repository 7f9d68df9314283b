package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/noc"
)

func simBody(t *testing.T) ([]byte, *noc.SimRequest) {
	t.Helper()
	req := &noc.SimRequest{
		Archs: []noc.SimArch{
			{Name: "mesh4x4", Mesh: "4x4"},
			{Name: "scalefree", BA: "24:2:3"},
		},
		Points: []noc.SimPoint{
			{Arch: 0, Pattern: "uniform", Bits: 128, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 400, Seed: 1},
			{Arch: 1, Pattern: "uniform", Bits: 96, Rate: 0.05, WarmupCycles: 100, MeasureCycles: 400, Seed: 3, IncludeStats: true},
			{Arch: 0, Pattern: "transpose", Bits: 128, Rate: 0.25, WarmupCycles: 100, MeasureCycles: 400, Seed: 4},
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body, req
}

// TestHTTPSimulate is the /v1/simulate acceptance test: the endpoint's
// bytes equal a local -parallel 1 batch run of the same request, a
// repeat submission is served from the content-addressed cache, and the
// cached bytes stay addressable under /v1/results/{key}.
func TestHTTPSimulate(t *testing.T) {
	s := newStubService(t, Config{Workers: 2})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body, req := simBody(t)
	res, err := noc.RunSim(context.Background(), req, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}

	post := func() ([]byte, string, string, int) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/simulate?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return data, resp.Header.Get("X-Nocserve-Key"), resp.Header.Get("X-Nocserve-Path"), resp.StatusCode
	}

	got, key, path, code := post()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	if path != "queued" {
		t.Fatalf("first submission path %q, want queued", path)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("endpoint bytes diverge from local -parallel 1 run:\nendpoint: %s\nlocal:    %s", got, want.Bytes())
	}

	again, key2, path2, code2 := post()
	if code2 != http.StatusOK || !bytes.Equal(again, got) {
		t.Fatalf("repeat submission: status %d, bytes equal %v", code2, bytes.Equal(again, got))
	}
	if path2 != "cache" {
		t.Fatalf("repeat submission path %q, want cache", path2)
	}
	if key2 != key {
		t.Fatalf("content keys differ across submissions: %q vs %q", key, key2)
	}

	resp, err := http.Get(srv.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	byKey, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(byKey, got) {
		t.Fatalf("results-by-key: status %d, bytes equal %v", resp.StatusCode, bytes.Equal(byKey, got))
	}
}

// TestHTTPSimulateAsync covers the detached path: submission returns a
// job handle, the job reaches Done with kind "simulate", and no summary
// decode is attempted on the simulate payload.
func TestHTTPSimulateAsync(t *testing.T) {
	s := newStubService(t, Config{Workers: 2})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	body, _ := simBody(t)
	resp, err := http.Post(srv.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d", resp.StatusCode)
	}

	job, ok := s.JobByID(sub.JobID)
	if !ok {
		t.Fatalf("job %s not retained", sub.JobID)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := job.Status()
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.Kind != JobKindSimulate {
		t.Fatalf("job kind %q, want %q", st.Kind, JobKindSimulate)
	}
	if st.Summary != nil {
		t.Fatal("simulate job carries a synthesis summary")
	}
	if len(job.Encoded()) == 0 {
		t.Fatal("done simulate job has no encoded result")
	}
}

// TestSimulateKeyPinned pins the content address of one fixed request,
// so a change to the canonical wire form that would re-address (and so
// orphan) cached simulate results fails here first.
func TestSimulateKeyPinned(t *testing.T) {
	_, req := simBody(t)
	key, err := SimulateKey(req)
	if err != nil {
		t.Fatal(err)
	}
	const want = "778f033bd623519e158e2647b03f85bed07467c988470f800784a280e863d326"
	if key != want {
		t.Fatalf("SimulateKey = %s, want %s", key, want)
	}
}

// TestHTTPSimulateBadRequest maps malformed bodies to 400, not 500.
func TestHTTPSimulateBadRequest(t *testing.T) {
	s := newStubService(t, Config{Workers: 1})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Request-shape errors reject at submit with 400. Deeper build errors
	// (an unknown pattern) only surface when the worker builds the batch,
	// so they fail the job — the wait path reports that as 500 with the
	// build error, matching how a failed solve is reported.
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not json":      {"{", http.StatusBadRequest},
		"unknown field": {`{"archs":[],"points":[],"bogus":1}`, http.StatusBadRequest},
		"no points":     {`{"archs":[{"mesh":"4x4"}],"points":[]}`, http.StatusBadRequest},
		// A kernel partition count from an old client is refused, not ignored.
		"partitions field": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"uniform","bits":128,"rate":0.1,"warmupCycles":10,"measureCycles":50,"seed":1,"partitions":4}]}`,
			http.StatusBadRequest},
		"bad pattern": {`{"archs":[{"mesh":"4x4"}],"points":[{"arch":0,"pattern":"zigzag","bits":128,"rate":0.1,"warmupCycles":10,"measureCycles":50,"seed":1}]}`,
			http.StatusInternalServerError},
	} {
		resp, err := http.Post(srv.URL+"/v1/simulate?wait=1", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, tc.want, data)
		}
	}
}
