package webscope

import (
	"net/http"
	"path"
	"strconv"
	"strings"
	"time"

	"repro/internal/glib"
	"repro/internal/reclog"
	"repro/internal/tuple"
)

// /v1/sessions: the flight recorder's on-disk sessions over HTTP.
// The listing covers the server's active recording directory (gscoped
// -record); querying replays a time window through reclog's indexed
// reader (segments wholly outside the window are never read) and
// returns the tuples as JSON triples. Reads are plain file I/O on the
// handler goroutine — reclog sessions are safe to read while the
// recorder appends (crash-tolerant scanning), so no loop marshaling.

// maxSessionTuples bounds one query response; the newest tuples win,
// like the hub's own flight-log backfill bound.
const maxSessionTuples = 100000

type segmentJSON struct {
	Seq     int64 `json:"seq"`
	FirstMS int64 `json:"firstMS"`
	LastMS  int64 `json:"lastMS"`
	Bytes   int64 `json:"bytes"`
	Tuples  int64 `json:"tuples"`
}

type sessionJSON struct {
	ID       int           `json:"id"`
	Dir      string        `json:"dir"`
	Tuples   int64         `json:"tuples"`
	FirstMS  *int64        `json:"firstMS"`
	LastMS   *int64        `json:"lastMS"`
	Segments []segmentJSON `json:"segments"`
}

// handleSessions serves:
//
//	GET /v1/sessions                          → {"sessions":[{...}]}
//	GET /v1/sessions/ID?from=&to=&signals=&limit= → {"tuples":[[t,v,"name"],...]}
//
// from/to are recorded-timeline milliseconds (to absent = unbounded);
// signals filters by the same exact/glob patterns streams use; limit
// caps returned tuples (newest win; default and max 100000).
func (g *Gateway) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "sessions requires GET")
		return
	}
	dir := g.srv.FlightDir()
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sessions")
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		g.listSessions(w, dir)
		return
	}
	id, err := strconv.Atoi(rest)
	if err != nil || id != 0 {
		httpError(w, http.StatusNotFound, "unknown session "+rest)
		return
	}
	if dir == "" {
		httpError(w, http.StatusNotFound, "the hub is not recording (gscoped -record)")
		return
	}
	g.querySession(w, r, dir)
}

func (g *Gateway) listSessions(w http.ResponseWriter, dir string) {
	sessions := []sessionJSON{}
	if dir != "" {
		if sess, err := reclog.OpenSession(dir); err == nil {
			sj := sessionJSON{ID: 0, Dir: dir, Tuples: sess.Tuples(), Segments: []segmentJSON{}}
			if first, last, ok := sess.Bounds(); ok {
				sj.FirstMS, sj.LastMS = &first, &last
			}
			for _, seg := range sess.Segments() {
				sj.Segments = append(sj.Segments, segmentJSON{
					Seq: seg.Seq, FirstMS: seg.First, LastMS: seg.Last,
					Bytes: seg.Bytes, Tuples: seg.Tuples,
				})
			}
			sessions = append(sessions, sj)
		}
	}
	writeJSON(w, map[string]any{"sessions": sessions})
}

func (g *Gateway) querySession(w http.ResponseWriter, r *http.Request, dir string) {
	q := r.URL.Query()
	var from, to time.Duration
	if s := q.Get("from"); s != "" {
		d, err := parseSinceMS(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		from = d
	}
	if s := q.Get("to"); s != "" {
		d, err := parseSinceMS(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		to = d
	}
	limit := maxSessionTuples
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad limit: "+s)
			return
		}
		limit = min(n, maxSessionTuples)
	}
	var patterns []string
	for _, v := range q["signals"] {
		for _, p := range strings.Split(v, ",") {
			if p != "" {
				patterns = append(patterns, p)
			}
		}
	}
	for _, p := range patterns {
		if _, err := path.Match(p, "probe"); err != nil {
			httpError(w, http.StatusBadRequest, "bad signal pattern: "+p)
			return
		}
	}

	sess, err := reclog.OpenSession(dir)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	rep := reclog.NewReplayer(sess)
	rep.SetSpeed(0)
	if from != 0 || to != 0 {
		rep.SetWindow(from, to)
	}
	kept := glib.NewDropQueue[tuple.Tuple](limit)
	rep.Run(func(batch []tuple.Tuple) error { //nolint:errcheck // best-effort read of a live session
		for _, t := range batch {
			if matchSignal(patterns, t.Name) {
				kept.Push(t, false)
			}
		}
		return nil
	})
	truncated, out := kept.Dropped() > 0, kept.Take(nil)

	w.Header().Set("Content-Type", "application/json")
	buf := make([]byte, 0, 64+32*len(out))
	buf = append(buf, `{"dir":`...)
	buf = tuple.AppendJSONString(buf, dir)
	buf = append(buf, `,"truncated":`...)
	buf = strconv.AppendBool(buf, truncated)
	buf = append(buf, `,"tuples":`...)
	buf = tuple.AppendJSONBatch(buf, out)
	buf = append(buf, '}', '\n')
	w.Write(buf) //nolint:errcheck // client gone is the only failure
}

// matchSignal applies the stream lanes' filter semantics: no patterns
// means everything; otherwise exact match or path.Match glob.
func matchSignal(patterns []string, name string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if p == name {
			return true
		}
		if ok, err := path.Match(p, name); err == nil && ok {
			return true
		}
	}
	return false
}
