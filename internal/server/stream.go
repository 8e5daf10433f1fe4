package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/graph"
	"repro/internal/ingest"
)

// The NDJSON firehose: POST /v1/graphs/{name}/edges:stream accepts an
// unbounded stream of single-edge mutation records,
//
//	{"op":"add","u":1,"v":2}
//	{"op":"del","u":3,"v":4}
//
// (op defaults to "add"), chunks them into pipeline submissions, and
// answers with an NDJSON stream of per-chunk acknowledgements,
//
//	{"ok":true,"version":17,"submitted":512}
//
// each emitted only after that chunk's group commit made it durable —
// an ack carries the same guarantee a unary mutation response does. A
// final {"done":true,...} line summarizes the session. Decoding,
// committing, and acknowledging overlap: the reader keeps feeding the
// pipeline while earlier chunks fsync, which is where the throughput
// over repeated unary POSTs comes from.

// streamChunk is how many records the firehose folds into one pipeline
// submission. Large enough to amortize the per-submission channel hop,
// small enough that acks stay frequent and a mid-stream crash loses
// little acknowledged work (none, durably).
const streamChunk = 512

// streamAckWindow bounds how many chunks may be in flight (submitted,
// not yet acknowledged) before the reader stops decoding — natural
// backpressure tying the client's send rate to commit throughput.
const streamAckWindow = 32

// streamRecord is one firehose line.
type streamRecord struct {
	Op string `json:"op"`
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
}

// streamAck is one acknowledgement line (or the closing summary).
type streamAck struct {
	OK        bool   `json:"ok"`
	Version   uint64 `json:"version,omitempty"`
	Submitted int    `json:"submitted,omitempty"`
	Error     string `json:"error,omitempty"`

	Done     bool `json:"done,omitempty"`
	Chunks   int  `json:"chunks,omitempty"`
	Accepted int  `json:"accepted,omitempty"`
	Failed   int  `json:"failed,omitempty"`
}

// handleIngestStream serves the firehose.
func (s *Server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	name := r.PathValue("name")
	e, ok := s.Lookup(name)
	if !ok {
		WriteError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	if e.State != StateReady || e.Index == nil {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "graph %q still building", name)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" &&
		!strings.HasPrefix(ct, "application/x-ndjson") && !strings.HasPrefix(ct, "application/json") {
		WriteError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q: send application/x-ndjson", ct)
		return
	}
	p, err := s.pipeline(name)
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}

	// The firehose is full duplex by design: acks stream back while the
	// client is still uploading records. Go's HTTP/1 server otherwise
	// aborts request-body reads once the response begins, which would
	// stall any client that paces its uploads on the acks (including the
	// cluster coordinator's streaming proxy). Best-effort: HTTP/2 is
	// already duplex and returns an error here, which is fine to ignore.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	// The writer goroutine drains in-flight chunks in submission order,
	// so acks stream back while the reader below keeps decoding. It is
	// the only goroutine touching w after the header goes out.
	type inflight struct {
		n  int
		ch <-chan ingest.Outcome
	}
	acks := make(chan inflight, streamAckWindow)
	writerDone := make(chan streamAck, 1)
	go func() {
		var sum streamAck
		sum.Done = true
		for f := range acks {
			out := <-f.ch
			sum.Chunks++
			ack := streamAck{OK: out.Err == nil, Submitted: f.n}
			if out.Err != nil {
				sum.Failed += f.n
				ack.Error = out.Err.Error()
			} else {
				sum.Accepted += f.n
				ack.Version = out.Applied.Version
				sum.Version = out.Applied.Version
			}
			ack.OK = out.Err == nil
			if enc.Encode(ack) == nil {
				// rc.Flush, not w.(http.Flusher): the observation
				// middleware's recorder only exposes Flush through the
				// ResponseController Unwrap chain. A bare type assertion
				// fails there, and unflushed acks deadlock any client
				// that paces its uploads on them.
				_ = rc.Flush()
			}
		}
		writerDone <- sum
	}()

	limit := s.opts.maxInlineVertexID()
	dec := json.NewDecoder(r.Body)
	chunk := make([]ingest.Mutation, 0, streamChunk)
	var streamErr string
	submit := func() bool {
		if len(chunk) == 0 {
			return true
		}
		muts := make([]ingest.Mutation, len(chunk))
		copy(muts, chunk)
		chunk = chunk[:0]
		ch, err := p.SubmitAsync(r.Context(), muts)
		if err != nil {
			if errors.Is(err, ingest.ErrClosed) {
				streamErr = fmt.Sprintf("graph %q removed mid-stream", name)
			} else {
				streamErr = err.Error()
			}
			return false
		}
		acks <- inflight{n: len(muts), ch: ch}
		return true
	}

decode:
	for {
		var rec streamRecord
		if err := dec.Decode(&rec); err != nil {
			if !errors.Is(err, io.EOF) {
				streamErr = fmt.Sprintf("bad record: %v", err)
			}
			break
		}
		var op ingest.Op
		switch rec.Op {
		case "", "add":
			op = ingest.OpAdd
			if limit > 0 && (int64(rec.U) > limit || int64(rec.V) > limit) {
				streamErr = fmt.Sprintf("vertex ID %d exceeds the limit %d", max(rec.U, rec.V), limit)
				break decode
			}
		case "del":
			op = ingest.OpDel
		default:
			streamErr = fmt.Sprintf("bad record: unknown op %q", rec.Op)
			break decode
		}
		chunk = append(chunk, ingest.Mutation{Op: op, Edge: graph.Edge{U: rec.U, V: rec.V}})
		if len(chunk) >= streamChunk && !submit() {
			break
		}
	}
	submit() // tail chunk (no-op when the loop broke on a submit failure)
	close(acks)
	sum := <-writerDone
	if streamErr != "" {
		sum.Error = streamErr
	}
	sum.OK = streamErr == "" && sum.Failed == 0
	_ = enc.Encode(sum)
	_ = rc.Flush()
}
