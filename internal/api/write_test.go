package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// TestWriteJSONEncodeFailureIsTheEnvelope: a value that does not
// encode is answered with the 500 envelope, complete and with its
// length — not with the 200 header and a truncated body the encoder
// gave up on.
func TestWriteJSONEncodeFailureIsTheEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"table": 5, "data": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body)
	}
	var env errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "encode_error" || env.Error.Message == "" {
		t.Errorf("body is not the encode_error envelope (%v): %s", err, rec.Body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q, body is %d bytes", got, rec.Body.Len())
	}
}
