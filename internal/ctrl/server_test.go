package ctrl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
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
