// Command chainaudit runs the paper's audit pipeline over a chain CSV
// (as produced by cmd/gendata or dataset.WriteChainCSV):
//
//	chainaudit -chain chain.csv [-minshare 0.04] [-ppe] [-selfinterest]
//	           [-lowfee] [-darkfee pool] [-sppe thr] [-scam address]
//	           [-window n]
//
// With no analysis flags, the PPE report, the self-interest audit, and the
// norm III census all run. -scam tests differential treatment of all
// transactions touching an address; -window adds the Fisher-combined
// windowed variant to the self-interest findings.
//
// Every audit goes through core.Auditor's AuditOptions API and the shared
// section renderers in internal/core; chainauditd serves the same audits
// over HTTP with byte-identical text output (see internal/serve).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chainaudit:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chainaudit", flag.ContinueOnError)
	chainPath := fs.String("chain", "", "chain CSV to audit (required)")
	minShare := fs.Float64("minshare", core.DefaultMinShare, "minimum pool share for differential tests")
	doPPE := fs.Bool("ppe", false, "run the PPE (norm II) report")
	doSelf := fs.Bool("selfinterest", false, "run the self-interest differential audit")
	doLowFee := fs.Bool("lowfee", false, "run the norm III low-fee census")
	darkPool := fs.String("darkfee", "", "scan this pool's blocks for SPPE-flagged (dark-fee) transactions")
	sppeThr := fs.Float64("sppe", core.DefaultSPPE, "SPPE threshold for -darkfee")
	scamAddr := fs.String("scam", "", "run the differential test over all transactions touching this address")
	windows := fs.Int("window", 0, "additionally run the Fisher-combined windowed self-interest test with N windows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chainPath == "" {
		return fmt.Errorf("-chain is required")
	}
	f, err := os.Open(*chainPath)
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := dataset.ReadChainCSV(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %d blocks, %d transactions\n\n", c.Len(), c.TxCount())

	all := !*doPPE && !*doSelf && !*doLowFee && *darkPool == "" && *scamAddr == ""
	aud := core.NewAuditor(c)
	opts := core.AuditOptions{MinShare: *minShare, Windows: *windows, SPPE: *sppeThr}
	// The flags' historical semantics: an explicit 0 means "no threshold",
	// which AuditOptions spells as a negative value.
	if *minShare <= 0 {
		opts.MinShare = -1
	}
	if *sppeThr <= 0 {
		opts.SPPE = -1
	}

	if all || *doPPE {
		if err := core.WritePPESection(out, aud.AuditPPE(opts)); err != nil {
			return err
		}
	}
	if all || *doSelf {
		rep, err := aud.AuditSelfInterest(opts)
		if err != nil {
			return err
		}
		if err := core.WriteSelfInterestSection(out, rep); err != nil {
			return err
		}
	}
	if *scamAddr != "" {
		set := aud.TouchingAddress(chain.Address(*scamAddr))
		var rows []core.DifferentialResult
		if len(set) > 0 {
			if rows, err = aud.AuditScam(set, opts); err != nil {
				return err
			}
		}
		if err := core.WriteScamSection(out, *scamAddr, len(set), rows); err != nil {
			return err
		}
	}
	if all || *doLowFee {
		if err := core.WriteLowFeeSection(out, aud.AuditLowFee(opts)); err != nil {
			return err
		}
	}
	if *darkPool != "" {
		cands := aud.AuditDarkFee(*darkPool, opts)
		if err := core.WriteDarkFeeSection(out, *darkPool, *sppeThr, cands); err != nil {
			return err
		}
	}
	return nil
}
