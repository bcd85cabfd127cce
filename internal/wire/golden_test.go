package wire

import (
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"mcn/internal/core"
)

// goldenFrames pins the MCNB encoding byte for byte: one request frame per
// query kind, and one result, one period-result and one error response
// frame, each as hex with its length prefix. A round trip cannot see a
// change made alike to the encoder and the decoder; these can. Each must
// encode to exactly its bytes, and decode from them to exactly its value.
var goldenFrames = []struct {
	name  string
	value any // *Request, *Result, *PeriodResult or *Response (an error)
	hex   string
}{
	{"skyline", &Request{Kind: KindSkyline, Edge: 42, T: 0.25}, "130000004d434e4201010000000054000000000000d03f"},
	{"topk", &Request{Kind: KindTopK, Edge: 7, T: 0.5, K: 3, Weights: []float64{1, 0.5}, Engine: "lsa"}, "250000004d434e420102000000010e000000000000e03f0602000000000000f03f000000000000e03f"},
	{"nearest", &Request{Kind: KindNearest, Edge: 300, T: 1, K: 2, Cost: 1, TimeoutMS: 250}, "170000004d434e4201030000f40300d804000000000000f03f0402"},
	{"within", &Request{Kind: KindWithin, Edge: 0, T: 0, Budget: []float64{10, 2.5}}, "240000004d434e420104000000000000000000000000000200000000000024400000000000000440"},
	{"multisource/skyline", &Request{Kind: KindMultiSourceSkyline, Edges: []int{1, 2, 130}, Ts: []float64{0, 0.5, 1}, Cost: 2}, "290000004d434e420105000000000302048402030000000000000000000000000000e03f000000000000f03f04"},
	{"multisource/topk", &Request{Kind: KindMultiSourceTopK, Edges: []int{5, 9}, K: 1, Weights: []float64{1, 1}}, "210000004d434e42010600000000020a1200000202000000000000f03f000000000000f03f"},
	{"skyline/period", &Request{Kind: KindSkylinePeriod, Edge: 3, T: 0.75, From: 0, To: 120}, "230000004d434e4201070000000006000000000000e83f00000000000000000000000000005e40"},
	{"topk/period", &Request{Kind: KindTopKPeriod, Edge: 4, T: 0.125, K: 2, From: -5, To: 7.5, Engine: "lsa"}, "250000004d434e4201080000000108000000000000c03f040000000000000014c00000000000001e40"},
	{"result", &Result{
		Query: "topk", Count: 2,
		Facilities: []Facility{{ID: 3, Costs: Costs{1.5, math.Inf(1)}, Score: 1.5}, {ID: 300, Costs: Costs{2, math.NaN()}, Score: 4}},
		Stats:      core.Stats{Pops: 9, GrowingPops: 4, NodeExpansions: 200, PrunedNodes: 0, Tracked: 5},
		LatencyMS:  0.75,
	}, "300000004d434e4201400000020202030000c03f0000807f0000c03fac02000000400000c07f000080400904c80100050000403f"},
	{"period result", &PeriodResult{
		Query: "skyline_over_period", Count: 2,
		Intervals: []Interval{
			{From: 0, To: 10, Count: 1, Facilities: []Facility{{ID: 1, Costs: Costs{2, 3}}}, Stats: core.Stats{Pops: 2, Tracked: 1}},
			{From: 10, To: 20, Count: 0, Stats: core.Stats{NodeExpansions: 130}},
		},
		LatencyMS: 2,
	}, "490000004d434e42014100000702020000000000000000000000000000244001010000004000004040000000000200000001000000000000244000000000000034400000008201000000000040"},
	{"error", &Response{Status: 400, Message: "bad edge"}, "130000004d434e42017f00009003086261642065646765"},
}

func TestFrameGolden(t *testing.T) {
	for _, tc := range goldenFrames {
		var frame []byte
		var err error
		switch v := tc.value.(type) {
		case *Request:
			frame, err = EncodeRequest(v)
		case *Result:
			frame, err = EncodeResult(v)
		case *PeriodResult:
			frame, err = EncodePeriodResult(v)
		case *Response:
			frame = EncodeError(v.Status, v.Message)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(frame); got != tc.hex {
			t.Errorf("%s: encodes to\n%s\nwant\n%s", tc.name, got, tc.hex)
			continue
		}
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		var got any
		if _, ok := tc.value.(*Request); ok {
			got, err = DecodeRequest(want[lenPrefixLen:])
		} else {
			var resp *Response
			resp, err = DecodeResponse(want[lenPrefixLen:])
			switch {
			case resp == nil:
			case resp.Result != nil:
				got = resp.Result
			case resp.Period != nil:
				got = resp.Period
			default:
				got = resp
			}
		}
		if err != nil {
			t.Fatalf("%s: decoding the golden bytes: %v", tc.name, err)
		}
		// %+v prints NaN as NaN, so an unknown cost compares equal to itself.
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", tc.value); g != w {
			t.Errorf("%s: the golden bytes decode to\n%s\nwant\n%s", tc.name, g, w)
		}
	}
}
