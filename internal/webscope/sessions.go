package webscope

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/netscope"
	"repro/internal/reclog"
	"repro/internal/tuple"
)

// /v1/sessions: the flight recorder's on-disk sessions over HTTP.
// The listing covers the server's active recording directory (gscoped
// -record); querying reads a time window through netscope.ReadFlight,
// the hub's own flight-log backfill read (segments wholly outside the
// window are never read), and returns the tuples as JSON triples. Reads
// are plain file I/O on the handler goroutine — reclog sessions are safe
// to read while the recorder appends (crash-tolerant scanning), so no
// loop marshaling.

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
// from/to are recorded-timeline offsets, milliseconds or Go durations,
// negative = trailing from the session's newest stamp (to absent or 0 =
// unbounded); signals is parsed and matched exactly as a
// stream's; limit caps returned tuples (newest win; default and max
// 100000).
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

// querySession answers what a since= subscription's flight-log backfill
// would: the same window read (netscope.ReadFlight), the same patterns.
func (g *Gateway) querySession(w http.ResponseWriter, r *http.Request, dir string) {
	q := r.URL.Query()
	req, err := netscope.ParseSubscriptionFields(queryFields(q))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var window [2]int64 // from, to in ms; to 0 = unbounded
	for i, key := range []string{"from", "to"} {
		if s := q.Get(key); s != "" {
			d, err := netscope.ParseSince(s)
			if err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			window[i] = d.Milliseconds()
		}
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

	// Negative offsets trail the session's newest stamp, as a stream's
	// since trails the hub's, clamped at the timeline's start. A to that
	// reaches back to the start matches nothing: ReadFlight would read a
	// to of 0 as unbounded.
	none := false
	if window[0] < 0 || window[1] < 0 {
		sess, err := reclog.OpenSession(dir)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		_, last, _ := sess.Bounds()
		if window[0] < 0 {
			window[0] = max(0, last+window[0])
		}
		if window[1] < 0 {
			window[1] += last
			none = window[1] <= 0
		}
	}
	var (
		out       []tuple.Tuple
		truncated bool
	)
	if !none {
		out, truncated, err = netscope.ReadFlight(dir, req.Signals, window[0], window[1], limit)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
	}

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
