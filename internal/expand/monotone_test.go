package expand

import (
	"math"
	"math/rand"
	"testing"
)

// monotoneScript plays ops against a monotoneQueue and a reference that
// pops the least pending item by (key, tie), failing t at the first
// disagreement. Every byte of ops is one step (one more byte picks a pushed
// key's kind, a third a facility id or a key offset):
//
//   - 0: pop; 1: peek. Both must return the reference minimum, whose key
//     becomes the floor.
//   - 2, 3: push a node (tie: push sequence) or a facility (tie: id, 8 ids,
//     so equal facilities recur) at a key at or above the floor: the floor
//     itself, −0 while the floor is 0, +Inf, the floor plus a few units in
//     the last place, the floor plus a small integer, a pending key (equal
//     keys on node and facility ties), or the floor scaled up.
//   - 4: push a key below the floor, negative or NaN; it must be refused and
//     leave the queue as it was.
//
// The queue is drained against the reference at the end.
func monotoneScript(t *testing.T, ops []byte) {
	t.Helper()
	var q monotoneQueue
	var pending []item
	floor := 0.0
	seq := uint32(0)
	next := func(i *int) byte {
		if *i >= len(ops) {
			return 0
		}
		*i++
		return ops[*i-1]
	}
	least := func() int {
		m := 0
		for j, it := range pending {
			if it.less(pending[m]) {
				m = j
			}
		}
		return m
	}
	check := func(step int, op string, got item, ok bool, remove bool) {
		t.Helper()
		if len(pending) == 0 {
			if ok {
				t.Fatalf("step %d: %s on an empty queue returned %+v", step, op, got)
			}
			return
		}
		m := least()
		if !ok || got != pending[m] {
			t.Fatalf("step %d: %s = %+v (ok %v), want %+v", step, op, got, ok, pending[m])
		}
		floor = got.key + 0
		if remove {
			pending = append(pending[:m], pending[m+1:]...)
		}
	}
	for i := 0; i < len(ops); {
		step := i
		switch op := next(&i) % 5; op {
		case 0:
			got, ok := q.pop()
			check(step, "pop", got, ok, true)
		case 1:
			got, ok := q.peek()
			check(step, "peek", got, ok, false)
		case 2, 3:
			var key float64
			switch arg := next(&i); arg % 7 {
			case 0:
				key = floor
			case 1:
				key = floor
				if floor == 0 {
					key = math.Copysign(0, -1)
				}
			case 2:
				key = math.Inf(1)
			case 3:
				key = math.Float64frombits(min(math.Float64bits(floor)+uint64(arg>>3), infBits))
			case 4:
				key = floor + float64(arg>>3)
			case 5:
				key = floor
				if len(pending) > 0 {
					key = pending[int(arg>>3)%len(pending)].key
				}
			case 6:
				key = floor * (1 + float64(arg>>3)/4)
			}
			it := item{key: key, tie: seq, id: seq}
			if op == 3 {
				id := uint32(next(&i) % 8)
				it = item{key: key, tie: facilityTie | id, id: id}
			} else {
				seq++
			}
			if err := q.push(it); err != nil {
				t.Fatalf("step %d: push %+v at floor %v: %v", step, it, floor, err)
			}
			pending = append(pending, it)
		case 4:
			key := math.NaN()
			switch next(&i) % 3 {
			case 0:
				key = -1
			case 1:
				if floor > 0 {
					key = math.Nextafter(floor, 0)
				}
			}
			if err := q.push(item{key: key, tie: seq, id: seq}); err == nil {
				t.Fatalf("step %d: push of key %v at floor %v accepted", step, key, floor)
			}
		}
	}
	for len(pending) > 0 {
		got, ok := q.pop()
		check(len(ops), "drain pop", got, ok, true)
	}
	if got, ok := q.pop(); ok {
		t.Fatalf("drained queue popped %+v", got)
	}
}

// Random interleavings of push, peek and pop, every push at or above the
// floor, pop exactly what a (key, tie)-sorted reference pops; a refused push
// changes nothing. After reset the queue is empty with floor 0 again.
func TestMonotoneQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 2000; trial++ {
		ops := make([]byte, rng.Intn(600))
		rng.Read(ops)
		monotoneScript(t, ops)
	}

	var q monotoneQueue
	for _, k := range []float64{5, 1e300, math.Inf(1)} {
		if err := q.push(item{key: k}); err != nil {
			t.Fatal(err)
		}
	}
	q.pop()
	q.reset()
	if _, ok := q.peek(); ok {
		t.Fatal("reset queue is not empty")
	}
	if err := q.push(item{key: 0}); err != nil {
		t.Fatalf("reset queue refused key 0: %v", err)
	}
}

// FuzzMonotoneHeap searches for an interleaving on which the monotone queue
// and its (key, tie)-sorted reference disagree (see monotoneScript).
func FuzzMonotoneHeap(f *testing.F) {
	f.Add([]byte{2, 0, 3, 0, 1, 0, 0, 0})
	f.Add([]byte{3, 5, 7, 2, 5, 3, 5, 2, 1, 0, 2, 4, 0, 0, 0})
	f.Add([]byte{2, 1, 3, 1, 4, 2, 2, 34, 0, 3, 27, 2, 3, 1, 0, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		monotoneScript(t, ops)
	})
}
