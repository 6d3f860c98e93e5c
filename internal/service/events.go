package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dima/internal/metrics"
)

// GET /jobs/{id}/events streams the job's telemetry as Server-Sent
// Events: every lifecycle transition ("status", a JobStatus document),
// every computation round of the run ("round", a RoundStats document,
// delivered during the run, one computation round behind the round
// barrier), and — for dynamic jobs —
// every mutation batch ("mutation", a MutateResponse document). A
// subscriber that falls behind receives a "dropped" event whose data is
// {"dropped": n} in place of the n events it missed; the full round
// stream remains fetchable from /stats.
//
// Each event carries the broadcast sequence number as its SSE id, so
// the stream is resumable by inspection (dropped markers have no id).
// On attach the handler replays the job's retained event log — a late
// subscriber to a finished job sees its whole history — then follows
// live. The stream ends when the client disconnects or the server shuts
// down; a comment ping keeps idle connections alive through proxies.
//
// docs/OBSERVABILITY.md documents the schema.

// sseHeartbeat is the idle keep-alive interval.
const sseHeartbeat = 15 * time.Second

// sseSubscriberBuffer is each subscriber's bounded channel: enough for
// a full burst of round emissions; beyond it the subscriber is slow and
// events drop rather than stall other work.
const sseSubscriberBuffer = 256

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	// Subscribe BEFORE replaying so no event can fall between the
	// replayed prefix and the live channel; overlap is deduplicated by
	// sequence number below.
	sub := j.bcast.Subscribe(sseSubscriberBuffer)
	defer sub.Cancel()
	s.eventSubs.Add(1)
	defer s.eventSubs.Add(-1)

	var last uint64
	replay := j.bcast.Replay()
	if len(replay) > 0 && replay[0].Seq > 1 {
		// The retained log lost its oldest events; tell the client.
		_ = writeSSE(w, metrics.Event{Type: metrics.EventDropped, Data: replay[0].Seq - 1})
	}
	for _, ev := range replay {
		if err := writeSSE(w, ev); err != nil {
			return
		}
		last = ev.Seq
	}
	fl.Flush()

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return // client went away
		case <-s.baseCtx.Done():
			return // server closing
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if ev.Seq != 0 && ev.Seq <= last {
				continue // already sent during replay
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			if ev.Seq > last {
				last = ev.Seq
			}
			fl.Flush()
		case <-hb.C:
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE renders one event in the SSE wire format. Dropped markers
// (Seq 0) carry no id and wrap their count as {"dropped": n}.
func writeSSE(w io.Writer, ev metrics.Event) error {
	data := ev.Data
	if ev.Type == metrics.EventDropped {
		data = map[string]any{"dropped": ev.Data}
	}
	raw, err := json.Marshal(data)
	if err != nil {
		raw = []byte("{}")
	}
	if ev.Seq != 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", ev.Seq); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, raw)
	return err
}
