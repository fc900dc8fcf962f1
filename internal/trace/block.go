package trace

// The compact per-job counter block. A PBS record's PerNode holds one
// 44-counter delta per allocated node, and a job's nodes run the same
// program, so each node's row differs from node 0's by only a few counts.
// On disk (database format 2, checkpoint format 2) the whole PerNode is
// one byte block:
//
//	uvarint  node count n
//	uvarint  node 0's counters, Counts[mode][event] in row-major order
//	varint   residuals v[i][c] - v[0][c], column by column, for i = 1..n-1
//
// Residuals are taken in wrapping uint64 arithmetic and zigzag-encoded
// as int64 (binary.AppendVarint), so every uint64 round-trips and a node
// that counted less than node 0 costs no more than one that counted more.
// The block is a []byte field of the wire record, which encoding/json
// writes as base64; every other field of the record stays JSON.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/hpm"
	"repro/internal/pbs"
	"repro/internal/workload"
)

// countersPerNode is one node's row: both modes of every Table 1 event.
const countersPerNode = len(hpm.Delta{}.Counts) * int(hpm.NumEvents)

var errTruncated = errors.New("truncated varint")

// appendBlock appends the counter block of nodes to b.
func appendBlock(b []byte, nodes []hpm.Delta) []byte {
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	if len(nodes) == 0 {
		return b
	}
	base := &nodes[0].Counts
	for m := range base {
		for _, v := range base[m] {
			b = binary.AppendUvarint(b, v)
		}
	}
	for m := range base {
		for e, v0 := range base[m] {
			for i := 1; i < len(nodes); i++ {
				b = binary.AppendVarint(b, int64(nodes[i].Counts[m][e]-v0))
			}
		}
	}
	return b
}

// readBlock decodes one counter block. It rejects a node count the block
// is too short to hold (every counter takes at least one byte, which also
// bounds the allocation by the input size), a truncated or overlong
// varint, and bytes left over after the last residual. A block with n=0
// decodes to an empty, non-nil slice.
func readBlock(b []byte) ([]hpm.Delta, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, errTruncated
	}
	b = b[k:]
	if n > uint64(len(b)/countersPerNode) {
		return nil, fmt.Errorf("node count %d does not fit in %d bytes", n, len(b))
	}
	nodes := make([]hpm.Delta, n)
	if n > 0 {
		base := &nodes[0].Counts
		for m := range base {
			for e := range base[m] {
				v, k := binary.Uvarint(b)
				if k <= 0 {
					return nil, errTruncated
				}
				base[m][e], b = v, b[k:]
			}
		}
		for m := range base {
			for e, v0 := range base[m] {
				for i := 1; i < len(nodes); i++ {
					d, k := binary.Varint(b)
					if k <= 0 {
						return nil, errTruncated
					}
					nodes[i].Counts[m][e], b = v0+uint64(d), b[k:]
				}
			}
		}
	}
	if len(b) > 0 {
		return nil, fmt.Errorf("%d bytes left over", len(b))
	}
	return nodes, nil
}

// wireRecord is a PBS record as format 2 stores it: the shadowing PerNode
// field replaces the counter arrays with their block. A nil PerNode is
// null on disk; an empty one is a block with n=0.
type wireRecord struct {
	pbs.Record
	PerNode []byte
}

// wireResult is a campaign Result as format 2 stores it: every field as
// the Result's own JSON except Records, which shadows the embedded field
// with wire records.
type wireResult struct {
	workload.Result
	Records []wireRecord
}

// blockChunk is the size of the buffers toWire packs blocks into.
const blockChunk = 64 << 10

// toWire encodes res's counter blocks. Each block is built in one reused
// scratch buffer and packed into shared chunks, so a Result costs a few
// allocations of about its encoded size however many records it holds.
func toWire(res workload.Result) wireResult {
	w := wireResult{Result: res}
	if res.Records == nil {
		return w
	}
	w.Records = make([]wireRecord, len(res.Records))
	var scratch, chunk []byte
	for i, r := range res.Records {
		w.Records[i].Record = r
		w.Records[i].Record.PerNode = nil
		if r.PerNode == nil {
			continue
		}
		scratch = appendBlock(scratch[:0], r.PerNode)
		if cap(chunk)-len(chunk) < len(scratch) {
			chunk = make([]byte, 0, max(blockChunk, len(scratch)))
		}
		start := len(chunk)
		chunk = append(chunk, scratch...)
		w.Records[i].PerNode = chunk[start:len(chunk):len(chunk)]
	}
	return w
}

// fromWire decodes w's counter blocks back into a Result.
func fromWire(w wireResult) (workload.Result, error) {
	res := w.Result
	if w.Records == nil {
		return res, nil
	}
	res.Records = make([]pbs.Record, len(w.Records))
	for i := range w.Records {
		r := w.Records[i].Record
		if blk := w.Records[i].PerNode; blk != nil {
			nodes, err := readBlock(blk)
			if err != nil {
				return workload.Result{}, fmt.Errorf("%w: record %d (job %d): counter block: %w", ErrCorrupt, i, r.JobID, err)
			}
			r.PerNode = nodes
		}
		res.Records[i] = r
	}
	return res, nil
}
