package client

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestStatusErrorRoundTrip asserts HTTP-level failures surface as
// StatusError (callers distinguish them from transport failures with
// errors.As — the router's health accounting depends on it) and that
// the server's JSON error body makes it into the message.
func TestStatusErrorRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte(`{"error":"nope"}`)) //nolint:errcheck
	}))
	defer srv.Close()

	_, _, err := New(srv.URL, nil).Block("img", 0)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("Block error = %v (%T), want *StatusError", err, err)
	}
	if se.Code != http.StatusTeapot {
		t.Fatalf("Code = %d, want 418", se.Code)
	}
	if se.Error() == "" || se.What == "" {
		t.Fatalf("StatusError not descriptive: %+v", se)
	}

	srv.Close()
	_, _, err = New(srv.URL, nil).Block("img", 0)
	if err == nil || errors.As(err, &se) {
		t.Fatalf("transport failure classified as StatusError: %v", err)
	}
}
