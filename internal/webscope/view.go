package webscope

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/draw"
	"repro/internal/geom"
	"repro/internal/netscope"
	"repro/internal/tuple"
)

// /v1/view: historical min/max/last envelopes from the hub's tiered
// per-signal store (core.TimedHistory), O(cols) per signal — the same
// read path Since+Cols subscriptions use, exposed as a query API so a
// dashboard can fetch any zoom window without holding a stream open.
// format=png renders the envelope server-side through internal/draw.

const (
	defaultViewCols = 512
	maxViewCols     = 4096
	defaultPNGW     = 800
	defaultPNGH     = 300
	maxPNGW         = 2048
	maxPNGH         = 1024
)

// handleView serves GET /v1/view?signals=&from=&to=&cols=&format=.
// signals and from (alias: since) parse as a stream's signals and since
// do; to takes the same offset forms. Negative values are trailing
// offsets from the newest stream timestamp; from defaults to -60000.
// Requires the hub's backfill store (Server.SetBackfillRetention); 409
// otherwise.
func (g *Gateway) handleView(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "view requires GET")
		return
	}
	q := r.URL.Query()
	from := q.Get("from")
	if from == "" {
		from = q.Get("since")
	}
	if from == "" {
		from = "-60000"
	}
	req, err := netscope.ParseSubscriptionFields(queryFields(q))
	if err == nil {
		req.Since, err = netscope.ParseSince(from)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	req.Cols = defaultViewCols
	if s := q.Get("cols"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad cols: "+s)
			return
		}
		req.Cols = min(n, maxViewCols)
	}
	to := q.Get("to")
	var toMS int64
	if to != "" {
		d, err := netscope.ParseSince(to)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		toMS = d.Milliseconds()
	}

	var (
		views  []netscope.SignalView
		newest int64
		seen   bool
		verr   error
	)
	if !g.invoke(func() { views, newest, seen, verr = g.srv.WebView(req) }) {
		httpError(w, http.StatusServiceUnavailable, errShutdown.Error())
		return
	}
	switch {
	case errors.Is(verr, netscope.ErrNoHistory):
		httpError(w, http.StatusConflict, verr.Error())
		return
	case verr != nil:
		httpError(w, http.StatusBadRequest, verr.Error())
		return
	}

	// An explicit upper bound trims the envelope after the O(cols) read.
	if to != "" {
		if toMS < 0 {
			toMS += newest
		}
		for i := range views {
			b := views[i].Buckets
			for len(b) > 0 && b[len(b)-1].Time > toMS {
				b = b[:len(b)-1]
			}
			views[i].Buckets = b
		}
	}

	switch q.Get("format") {
	case "", "json":
		writeViewJSON(w, views, req.Since.Milliseconds(), newest, seen, req.Cols)
	case "png":
		writeViewPNG(w, r, views)
	default:
		httpError(w, http.StatusBadRequest, "format must be json or png")
	}
}

// writeViewJSON renders {"newestMS":..,"fromMS":..,"cols":..,"signals":
// [{"name":N,"buckets":[[timeMS,min,max,last,count],...]},...]}.
func writeViewJSON(w http.ResponseWriter, views []netscope.SignalView, fromMS, newest int64, seen bool, cols int) {
	w.Header().Set("Content-Type", "application/json")
	buf := make([]byte, 0, 4096)
	buf = append(buf, `{"newestMS":`...)
	if seen {
		buf = strconv.AppendInt(buf, newest, 10)
	} else {
		buf = append(buf, "null"...)
	}
	buf = append(buf, `,"fromMS":`...)
	buf = strconv.AppendInt(buf, fromMS, 10)
	buf = append(buf, `,"cols":`...)
	buf = strconv.AppendInt(buf, int64(cols), 10)
	buf = append(buf, `,"signals":[`...)
	for i, v := range views {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = tuple.AppendJSONString(buf, v.Name)
		buf = append(buf, `,"buckets":[`...)
		for j, bk := range v.Buckets {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			buf = strconv.AppendInt(buf, bk.Time, 10)
			buf = append(buf, ',')
			buf = tuple.AppendJSONValue(buf, bk.Min)
			buf = append(buf, ',')
			buf = tuple.AppendJSONValue(buf, bk.Max)
			buf = append(buf, ',')
			buf = tuple.AppendJSONValue(buf, bk.Last)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, bk.Count, 10)
			buf = append(buf, ']')
		}
		buf = append(buf, `]}`...)
	}
	buf = append(buf, `]}`...)
	buf = append(buf, '\n')
	w.Write(buf) //nolint:errcheck // client gone is the only failure
}

// writeViewPNG renders the envelope chart: per signal a translucent
// min..max band and a bright last-value polyline, on the scope's
// dark-green canvas with a dotted grid.
func writeViewPNG(w http.ResponseWriter, r *http.Request, views []netscope.SignalView) {
	q := r.URL.Query()
	width := pngDim(q.Get("w"), defaultPNGW, maxPNGW)
	height := pngDim(q.Get("h"), defaultPNGH, maxPNGH)
	s := renderViews(views, width, height)
	w.Header().Set("Content-Type", "image/png")
	s.EncodePNG(w) //nolint:errcheck // client gone is the only failure
}

func pngDim(s string, def, max int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 16 {
		return def
	}
	if n > max {
		return max
	}
	return n
}

// renderViews rasterizes the envelope set onto one surface. Time spans
// the union of all buckets; values span the union of all min/max with 5%
// headroom.
func renderViews(views []netscope.SignalView, width, height int) *draw.Surface {
	s := draw.NewSurface(width, height)
	s.Fill(draw.ScopeBG)
	for i := 1; i < 8; i++ {
		s.DottedHLine(0, width-1, i*height/8, 3, draw.GridGreen)
		s.DottedVLine(i*width/8, 0, height-1, 3, draw.GridGreen)
	}
	tmin, tmax := int64(0), int64(0)
	vmin, vmax := 0.0, 0.0
	first := true
	for _, v := range views {
		for _, bk := range v.Buckets {
			if first {
				tmin, tmax, vmin, vmax = bk.Time, bk.Time, bk.Min, bk.Max
				first = false
				continue
			}
			tmin = min(tmin, bk.Time)
			tmax = max(tmax, bk.Time)
			vmin = min(vmin, bk.Min)
			vmax = max(vmax, bk.Max)
		}
	}
	if first || tmax == tmin {
		return s
	}
	if vmax == vmin {
		vmax++
		vmin--
	}
	pad := (vmax - vmin) * 0.05
	vmin -= pad
	vmax += pad
	xAt := func(t int64) int {
		return int(float64(t-tmin) / float64(tmax-tmin) * float64(width-1))
	}
	yAt := func(v float64) int {
		return int((vmax - v) / (vmax - vmin) * float64(height-1))
	}
	pts := make([]geom.Pt, 0, 256)
	for i, v := range views {
		c := draw.PaletteColor(i)
		band := c.Blend(draw.ScopeBG, 0.65)
		for _, bk := range v.Buckets {
			x := xAt(bk.Time)
			s.VLine(x, yAt(bk.Max), yAt(bk.Min), band)
		}
		pts = pts[:0]
		for _, bk := range v.Buckets {
			pts = append(pts, geom.Pt{X: xAt(bk.Time), Y: yAt(bk.Last)})
		}
		s.Polyline(pts, c)
	}
	return s
}
