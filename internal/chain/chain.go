package chain

import (
	"errors"
	"fmt"
	"time"
)

// TxLocation records where a transaction was confirmed.
type TxLocation struct {
	Height int64 // block height
	// Index is the position within the block, with the coinbase at 0.
	Index int
}

// Chain is an append-only sequence of blocks with a transaction index.
// The zero value is an empty chain ready to use.
type Chain struct {
	blocks []*Block
	index  map[TxID]TxLocation
	// spent maps every outpoint consumed by a confirmed transaction to its
	// spender — the chain-level double-spend guard (conflicting
	// transactions: at most one confirms).
	spent map[OutPoint]TxID
}

// New returns an empty chain.
func New() *Chain {
	return &Chain{index: make(map[TxID]TxLocation), spent: make(map[OutPoint]TxID)}
}

// ErrChainGap reports an appended block whose height does not extend the
// tip.
var ErrChainGap = errors.New("chain: block height does not extend tip")

// Append validates the block and appends it to the chain. The block's
// height must be exactly one past the current tip (or any height for the
// first block, supporting chains that start mid-history).
func (c *Chain) Append(b *Block) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return c.appendChecked(b)
}

// AppendDegraded appends a block reconstructed from damaged records without
// value validation: a block that lost fee-paying rows can no longer balance
// its coinbase against the surviving fees, and that imbalance is a property
// of the damage, not the data. The structural checks the audits rely on —
// a coinbase at position 0, height contiguity, no duplicate confirmations,
// no double spends — still hold.
func (c *Chain) AppendDegraded(b *Block) error {
	if len(b.Txs) == 0 || !b.Txs[0].IsCoinbase() {
		return fmt.Errorf("chain: degraded block %d missing coinbase", b.Height)
	}
	return c.appendChecked(b)
}

func (c *Chain) appendChecked(b *Block) error {
	if c.index == nil {
		c.index = make(map[TxID]TxLocation)
	}
	if c.spent == nil {
		c.spent = make(map[OutPoint]TxID)
	}
	if len(c.blocks) > 0 {
		if want := c.blocks[len(c.blocks)-1].Height + 1; b.Height != want {
			return fmt.Errorf("%w: got %d, want %d", ErrChainGap, b.Height, want)
		}
	}
	inBlock := make(map[OutPoint]TxID)
	for _, tx := range b.Txs {
		if loc, dup := c.index[tx.ID]; dup {
			return fmt.Errorf("chain: tx %s already confirmed at height %d", tx.ID.Short(), loc.Height)
		}
		for _, in := range tx.Inputs {
			if spender, taken := c.spent[in.PrevOut]; taken {
				return fmt.Errorf("%w: tx %s double-spends %s:%d (spent by %s)",
					ErrDoubleSpend, tx.ID.Short(), in.PrevOut.TxID.Short(), in.PrevOut.Index, spender.Short())
			}
			if spender, taken := inBlock[in.PrevOut]; taken {
				return fmt.Errorf("%w: tx %s double-spends %s:%d within the block (spent by %s)",
					ErrDoubleSpend, tx.ID.Short(), in.PrevOut.TxID.Short(), in.PrevOut.Index, spender.Short())
			}
			inBlock[in.PrevOut] = tx.ID
		}
	}
	for i, tx := range b.Txs {
		c.index[tx.ID] = TxLocation{Height: b.Height, Index: i}
		for _, in := range tx.Inputs {
			c.spent[in.PrevOut] = tx.ID
		}
	}
	c.blocks = append(c.blocks, b)
	return nil
}

// ErrDoubleSpend reports a block spending an outpoint a confirmed
// transaction already consumed.
var ErrDoubleSpend = errors.New("chain: double spend")

// ConflictsChain reports whether any of the transaction's inputs are
// already spent by a confirmed transaction.
func (c *Chain) ConflictsChain(tx *Tx) bool {
	for _, in := range tx.Inputs {
		if _, taken := c.spent[in.PrevOut]; taken {
			return true
		}
	}
	return false
}

// Len returns the number of blocks.
func (c *Chain) Len() int { return len(c.blocks) }

// Blocks returns the underlying block slice in height order. The slice is
// shared with the chain and must not be modified.
func (c *Chain) Blocks() []*Block { return c.blocks }

// Tip returns the most recent block, or nil for an empty chain.
func (c *Chain) Tip() *Block {
	if len(c.blocks) == 0 {
		return nil
	}
	return c.blocks[len(c.blocks)-1]
}

// BlockAt returns the block at the given height, or nil if absent.
func (c *Chain) BlockAt(height int64) *Block {
	if len(c.blocks) == 0 {
		return nil
	}
	off := height - c.blocks[0].Height
	if off < 0 || off >= int64(len(c.blocks)) {
		return nil
	}
	return c.blocks[off]
}

// Locate returns where the transaction was confirmed.
func (c *Chain) Locate(id TxID) (TxLocation, bool) {
	loc, ok := c.index[id]
	return loc, ok
}

// Contains reports whether the transaction has been confirmed.
func (c *Chain) Contains(id TxID) bool {
	_, ok := c.index[id]
	return ok
}

// TxCount returns the total number of non-coinbase transactions confirmed.
func (c *Chain) TxCount() int64 {
	var n int64
	for _, b := range c.blocks {
		n += int64(len(b.Body()))
	}
	return n
}

// EmptyBlockCount returns the number of coinbase-only blocks.
func (c *Chain) EmptyBlockCount() int {
	n := 0
	for _, b := range c.blocks {
		if b.IsEmpty() {
			n++
		}
	}
	return n
}

// Span returns the timestamps of the first and last block; ok is false for
// an empty chain.
func (c *Chain) Span() (first, last time.Time, ok bool) {
	if len(c.blocks) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return c.blocks[0].Time, c.blocks[len(c.blocks)-1].Time, true
}

// Slice returns a new chain view over blocks with Time in [from, to). The
// underlying blocks are shared. The returned chain is read-consistent but
// supports further appends independently.
func (c *Chain) Slice(from, to time.Time) *Chain {
	out := New()
	for _, b := range c.blocks {
		if b.Time.Before(from) || !b.Time.Before(to) {
			continue
		}
		for i, tx := range b.Txs {
			out.index[tx.ID] = TxLocation{Height: b.Height, Index: i}
			for _, in := range tx.Inputs {
				out.spent[in.PrevOut] = tx.ID
			}
		}
		out.blocks = append(out.blocks, b)
	}
	return out
}

// Suffix returns a new chain view over the last n blocks (all blocks when
// n <= 0 or n >= Len). The underlying blocks are shared. This is the batch
// reference for sliding-window audits: an audit over Suffix(n) defines what
// the incremental windowed state must reproduce byte-for-byte.
func (c *Chain) Suffix(n int) *Chain {
	out := New()
	if n <= 0 || n > len(c.blocks) {
		n = len(c.blocks)
	}
	for _, b := range c.blocks[len(c.blocks)-n:] {
		for i, tx := range b.Txs {
			out.index[tx.ID] = TxLocation{Height: b.Height, Index: i}
			for _, in := range tx.Inputs {
				out.spent[in.PrevOut] = tx.ID
			}
		}
		out.blocks = append(out.blocks, b)
	}
	return out
}

// ConfirmDelayBlocks returns, for a transaction first seen while block
// seenAtHeight was the tip, the number of blocks it waited before inclusion
// (1 = included in the immediately following block). ok is false when the
// transaction is unconfirmed.
func (c *Chain) ConfirmDelayBlocks(id TxID, seenAtHeight int64) (int64, bool) {
	loc, ok := c.index[id]
	if !ok {
		return 0, false
	}
	d := loc.Height - seenAtHeight
	if d < 1 {
		d = 1
	}
	return d, true
}
