package ctrl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ffc/internal/wire"
)

// TestWriteFrameMatchesMarshal: every reply kind — plan, meta, routes,
// stats, ping, a rejected update and a bad frame — goes out byte for byte
// as json.Marshal writes it, the get_plan splice included.
func TestWriteFrameMatchesMarshal(t *testing.T) {
	c, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	waitSeq(t, c, 1)
	s := &Server{ctrl: c}

	frames := map[string]*Response{}
	for _, q := range []string{QueryPlan, QueryMeta, QueryRoutes, QueryStats, QueryPing, "no_such_query"} {
		frames[q] = s.query(q)
	}
	frames["bad update"] = s.handle([]byte(`{"op":"link","link":"nowhere","up":false}`))
	frames["bad frame"] = s.handle([]byte(`{`))
	if len(frames[QueryPlan].Plan) == 0 || frames["bad frame"].Error == "" {
		t.Fatalf("want a plan reply with its plan and an error reply: %+v, %+v", frames[QueryPlan], frames["bad frame"])
	}
	for name, resp := range frames {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		out := bufio.NewWriter(&buf)
		if err := writeFrame(out, resp); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("%s frame:\n got %s\nwant %s", name, got, want)
		}
	}
}

// twoPassHandle is the request handler as it was before decodeFrame: a
// lenient probe of q and op, then wire.ParseUpdate for an update. It is the
// oracle of TestHandleMatchesTwoPass.
func twoPassHandle(s *Server, line []byte) *Response {
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
		if err := s.ctrl.Apply(u); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case probe.Q != "":
		return s.query(probe.Q)
	}
	return &Response{Error: "frame has neither q nor op"}
}

// parityFrames are the request lines of the ctrl tests, the seed corpus of
// wire's FuzzParseUpdate, and frames on the edges of the one-pass decode:
// unknown and mis-cased keys, a query and an update in one frame, null and
// non-string verbs, and bytes after the value.
var parityFrames = []string{
	// ctrl tests
	`{"q":"ping"}`, `{"q":"meta"}`, `{"q":"get_plan"}`, `{"q":"get_routes"}`, `{"q":"stats"}`,
	`{"op":"link","src":"s2","dst":"s4","up":false}`,
	`{"op":"link","src":"s2","dst":"s4","up":true}`,
	`{"op":"link","link":"nowhere","up":false}`,
	`{`,
	`{"op":"link","src":"s1"}`,
	`{"op":"switch","switch":"nope","up":false}`,
	`{"nonsense":1}`,
	`{"q":"reboot"}`,
	`{"op":"demands","demands":[{"src":"s1","dst":"s4","demand":5},{"src":"s1","dst":"s4","demand":6}]}`,
	`{"op":"protection","kc":1,"ke":1}`,
	// wire.FuzzParseUpdate seeds
	`{"op":"demands","demands":[{"src":"s2","dst":"s4","demand":7}]}`,
	`{"op":"demands","reset":true}`,
	`{"op":"link","src":"s1","dst":"s2","up":false}`,
	`{"op":"switch","switch":"s3","up":true}`,
	`{"op":"protection","kc":2,"ke":1,"kv":0}`,
	`{"op":"protection","kc":-1}`,
	`{"op":"demands","demands":[{"src":"a","dst":"a","demand":-1}]}`,
	// edges of the one-pass decode
	`{"x":1,"op":"demands","demands":[{"src":"s2","dst":"s4","demand":7}]}`,
	`{"OP":"link","src":"s1","dst":"s2","up":false}`,
	`{"q":"stats","x":1}`,
	`{"q":"stats","op":"link"}`,
	`{"Q":"stats"}`,
	`{"q":null}`, `{"q":""}`, `{"q":5}`, `{"q":"stats","op":""}`, `{"q":"stats","op":null}`,
	`{"op":"link","src":"s1","dst":"s2","up":false,"q":null}`,
	`{"op":"link","src":"s1","dst":"s2","up":false,"q":""}`,
	`{"op":5}`, `{"op":"link","up":"no"}`, `[]`, `"q"`, `null`,
	`{"op":"demands","demands":[{"src":"s2","dst":"s4","demand":7}]} x`,
	`{"op":"demands","demands":[{"src":"s2","dst":"s4","demand":7}]}}`,
	`{"op":"demands","demands":[{"src":"s2","dst":"s4","demand":7}]} {}`,
	`{"q":"ping"}]`,
	`{"q":"ping"}  ` + "\t\r",
	`{"q":"ping"}` + "\f",
	`{"op":"demands","demands":[{"src":"s2","dst":"s4","demand":7}],"demands":[{"src":"s1","dst":"s4","demand":1}]}`,
}

// TestHandleMatchesTwoPass: for every frame the server answers byte for
// byte as the two-pass handler did. Each frame goes to the oracle, then to
// handle, on the same controller: an update applies twice, which changes no
// reply, and nothing that a reply shows moves in between.
func TestHandleMatchesTwoPass(t *testing.T) {
	c, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{ctrl: c}
	encode := func(resp *Response) []byte {
		var buf bytes.Buffer
		out := bufio.NewWriter(&buf)
		if err := writeFrame(out, resp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, f := range parityFrames {
		want := encode(twoPassHandle(s, []byte(f)))
		if got := encode(s.handle([]byte(f))); !bytes.Equal(got, want) {
			t.Errorf("frame %s:\n got %s\nwant %s", f, got, want)
		}
	}
}
