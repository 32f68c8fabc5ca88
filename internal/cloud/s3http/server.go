// Package s3http exposes an ObjectStore over an S3-style REST interface
// (PUT/GET/DELETE an object; GET with ?list= for prefix listing) and
// provides a client that implements cloud.ObjectStore against such a
// server. It lets examples and experiments push Ginja's uploads through a
// real network socket, like the paper's prototype did.
package s3http

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// maxObjectBytes bounds a single uploaded object. Ginja splits objects at
// 20 MB (paper §5.2 footnote); 64 MiB leaves generous headroom.
const maxObjectBytes = 64 << 20

// Handler serves an ObjectStore over HTTP.
//
// The wire protocol:
//
//	PUT    /o/<key>        body = payload        → 200
//	GET    /o/<key>                              → 200 payload | 404
//	DELETE /o/<key>                              → 200 | 404
//	GET    /list?prefix=p                        → 200 JSON [{name,size}...]
//
// With a token configured (NewHandlerWithToken), every request must carry
// "Authorization: Bearer <token>".
type Handler struct {
	store cloud.ObjectStore
	token string
}

var _ http.Handler = (*Handler)(nil)

// NewHandler wraps store in an HTTP handler with no authentication.
func NewHandler(store cloud.ObjectStore) *Handler {
	return &Handler{store: store}
}

// NewHandlerWithToken wraps store in an HTTP handler requiring the given
// bearer token on every request. An empty token disables authentication.
func NewHandlerWithToken(store cloud.ObjectStore, token string) *Handler {
	return &Handler{store: store, token: token}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.token != "" {
		// Constant-time-ish compare is unnecessary at this trust level,
		// but avoid leaking length via prefix matching anyway.
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")),
			[]byte("Bearer "+h.token)) != 1 {
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
	}
	switch {
	case r.URL.Path == "/list":
		h.serveList(w, r)
	case strings.HasPrefix(r.URL.Path, "/o/"):
		h.serveObject(w, r, strings.TrimPrefix(r.URL.Path, "/o/"))
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) serveList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	infos, err := h.store.List(r.Context(), r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(infos); err != nil {
		// Too late for a status code; the client will see a broken body.
		return
	}
}

func (h *Handler) serveObject(w http.ResponseWriter, r *http.Request, key string) {
	switch r.Method {
	case http.MethodPut:
		data, status, err := readBody(r)
		if err != nil {
			http.Error(w, err.Error(), status)
			return
		}
		if err := h.store.Put(r.Context(), key, data); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodGet:
		data, err := h.store.Get(r.Context(), key)
		if errors.Is(err, cloud.ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data) //nolint:errcheck // nothing to do about a broken client pipe
	case http.MethodDelete:
		err := h.store.Delete(r.Context(), key)
		if errors.Is(err, cloud.ErrNotFound) {
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// errTooLarge refuses an object over maxObjectBytes.
var errTooLarge = errors.New("object too large")

// readBody reads a PUT body, or returns the error and the status that
// refuse it. A body of known length is read into one buffer of that size:
// a length over maxObjectBytes is refused before any byte is read, and a
// body that ends short of it is a bad request. A body of unknown length
// (chunked) is read up to the bound.
func readBody(r *http.Request) ([]byte, int, error) {
	if r.ContentLength > maxObjectBytes {
		return nil, http.StatusRequestEntityTooLarge, errTooLarge
	}
	if r.ContentLength >= 0 {
		data := make([]byte, r.ContentLength)
		if _, err := io.ReadFull(r.Body, data); err != nil {
			return nil, http.StatusBadRequest, err
		}
		return data, http.StatusOK, nil
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxObjectBytes+1))
	switch {
	case err != nil:
		return nil, http.StatusBadRequest, err
	case len(data) > maxObjectBytes:
		return nil, http.StatusRequestEntityTooLarge, errTooLarge
	}
	return data, http.StatusOK, nil
}

// statusError reports an unexpected HTTP status from the server.
type statusError struct {
	op     string
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("s3http %s: unexpected status %d: %s", e.op, e.status, e.body)
}
