package ctrl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"ffc/internal/wire"
)

// maxFrame bounds one protocol line; a larger frame drops the connection
// rather than buffering without limit.
const maxFrame = 4 << 20

// Query verbs. A request frame is either a query (`{"q":"get_plan"}`) or a
// wire.Update (`{"op":"link",...}`); the "q"/"op" key discriminates.
const (
	QueryPing   = "ping"
	QueryMeta   = "meta"
	QueryPlan   = "get_plan"
	QueryRoutes = "get_routes"
	QueryStats  = "stats"
)

// Response is one reply frame. Every request gets exactly one.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Meta describes the installed plan (all queries except stats/ping).
	Meta *Meta `json:"meta,omitempty"`
	// Plan is the installed plan's wire.StateFile, pre-encoded at install.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Routes are the installed flow entries (get_routes).
	Routes []wire.StateFlow `json:"routes,omitempty"`
	// Stats is the controller accounting (stats).
	Stats *StatsSnapshot `json:"stats,omitempty"`
}

// Server speaks the ffcd protocol over TCP: newline-delimited JSON frames,
// one request per line, one response per line, pipelined in order. Queries
// are answered from the installed plan snapshot and never touch the
// solver; update frames are folded into the controller's desired state.
type Server struct {
	ctrl *Controller
	ln   net.Listener
	logf func(format string, args ...interface{})

	mu     sync.Mutex
	conns  map[net.Conn]*serverConn
	closed bool
	wg     sync.WaitGroup
}

type serverConn struct {
	// mu is held across handle+respond, so a graceful Close never cuts a
	// connection mid-reply: it waits for the in-flight frame, then closes.
	mu sync.Mutex
	c  net.Conn
}

// Serve starts a server for ctrl on addr ("host:port"; ":0" picks a free
// port — see Addr).
func Serve(ctrl *Controller, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctrl: listen %s: %w", addr, err)
	}
	s := &Server{ctrl: ctrl, ln: ln, logf: ctrl.cfg.Logf, conns: map[net.Conn]*serverConn{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains the server: stop accepting, let every in-flight request
// finish its reply, then close all connections and return.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, sc := range conns {
		sc.mu.Lock() // waits for the in-flight handle+reply
		sc.c.Close()
		sc.mu.Unlock()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &serverConn{c: conn}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = sc
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(sc)
	}
}

func (s *Server) serveConn(sc *serverConn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc.c)
		s.mu.Unlock()
		sc.c.Close()
	}()
	scan := bufio.NewScanner(sc.c)
	scan.Buffer(make([]byte, 64<<10), maxFrame)
	out := bufio.NewWriter(sc.c)
	for scan.Scan() {
		line := scan.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		sc.mu.Lock()
		resp := s.handle(line)
		werr := writeFrame(out, resp)
		sc.mu.Unlock()
		if werr != nil {
			return
		}
	}
	if err := scan.Err(); err != nil && !errors.Is(err, net.ErrClosed) {
		s.logf("ctrl: conn %s: %v", sc.c.RemoteAddr(), err)
	}
}

// writeFrame writes resp as one line, byte for byte json.Marshal(resp). A
// plan is compact JSON already, written by wire.AppendState at install, and
// comes last in its reply (no routes or stats follow it): the envelope is
// marshalled without it and the plan's bytes are spliced in before the
// closing brace, where json.Marshal would re-validate all of them.
func writeFrame(out *bufio.Writer, resp *Response) error {
	plan := resp.Plan
	if len(resp.Routes) > 0 || resp.Stats != nil {
		plan = nil
	}
	if len(plan) > 0 {
		env := *resp
		env.Plan = nil
		resp = &env
	}
	blob, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	if len(plan) > 0 {
		out.Write(blob[:len(blob)-1])
		out.WriteString(`,"plan":`)
		out.Write(plan)
		blob = blob[len(blob)-1:]
	}
	if _, err := out.Write(blob); err != nil {
		return err
	}
	if err := out.WriteByte('\n'); err != nil {
		return err
	}
	return out.Flush()
}

// handle answers one request frame. decodeFrame settles almost every frame
// in one strict pass; whatever it cannot settle goes through handleTwoPass,
// which gives every frame the reply it always had.
func (s *Server) handle(line []byte) *Response {
	q, u, ok := decodeFrame(line)
	switch {
	case !ok:
		return s.handleTwoPass(line)
	case u != nil:
		return s.apply(u)
	}
	return s.query(q)
}

// frame is a request line as decodeFrame reads it: a query's verb (kept
// raw, so that a null or non-string q is seen) or an update's fields.
type frame struct {
	Q json.RawMessage `json:"q"`
	wire.Update
}

// decodeFrame decodes line once, strictly: no unknown field, nothing but
// JSON whitespace after the value. It returns the query verb or the update
// (not yet validated: Apply validates), and ok = false for every frame it
// cannot settle exactly as handleTwoPass would — one that fails the strict
// decode or has trailing bytes, an update that also carries a q key, a q
// that is not a non-empty string. On those frames the lenient probe of
// handleTwoPass and wire.ParseUpdate decide, as before.
func decodeFrame(line []byte) (q string, u *wire.Update, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var f frame
	if dec.Decode(&f) != nil || !jsonSpace(line[dec.InputOffset():]) {
		return "", nil, false
	}
	switch {
	case f.Op != "" && f.Q == nil:
		return "", &f.Update, true
	case f.Op == "" && f.Q != nil:
		if json.Unmarshal(f.Q, &q) == nil && q != "" {
			return q, nil, true
		}
	}
	return "", nil, false
}

// jsonSpace reports whether b holds only JSON whitespace.
func jsonSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// handleTwoPass answers a frame decodeFrame could not settle: a lenient
// probe of q and op, then wire.ParseUpdate's strict decode of an update.
func (s *Server) handleTwoPass(line []byte) *Response {
	var probe struct {
		Q  string `json:"q"`
		Op string `json:"op"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return &Response{Error: fmt.Sprintf("bad frame: %v", err)}
	}
	switch {
	case probe.Op != "":
		u, err := wire.ParseUpdate(line)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return s.apply(u)
	case probe.Q != "":
		return s.query(probe.Q)
	}
	return &Response{Error: "frame has neither q nor op"}
}

// apply folds an update into the controller (Apply validates it first).
func (s *Server) apply(u *wire.Update) *Response {
	if err := s.ctrl.Apply(u); err != nil {
		return &Response{Error: err.Error()}
	}
	return &Response{OK: true}
}

func (s *Server) query(q string) *Response {
	switch q {
	case QueryPing:
		return &Response{OK: true}
	case QueryStats:
		st := s.ctrl.Stats()
		return &Response{OK: true, Stats: &st}
	case QueryMeta, QueryPlan, QueryRoutes:
		p := s.ctrl.GetPlan()
		m := p.Meta()
		resp := &Response{OK: true, Meta: &m}
		switch q {
		case QueryPlan:
			resp.Plan = p.Encoded
		case QueryRoutes:
			resp.Routes = p.Routes()
		}
		return resp
	}
	return &Response{Error: fmt.Sprintf("unknown query %q", q)}
}
