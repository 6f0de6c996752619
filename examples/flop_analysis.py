#!/usr/bin/env python
"""Graph-based FLOP analysis at the paper's full 1152x768 resolution.

The networks are traced symbolically (no arithmetic), reproducing the
Section-VI methodology and the Figure 2 operation counts, then mapped onto
the V100/P100 rooflines for the per-category breakdown of Figures 8/9.

Run:  python examples/flop_analysis.py
"""
from repro.core import network_flop_table, paper_conv_example_flops
from repro.perf import figure2_table, format_table, kernel_breakdown
from repro.perf.claims import paper_value


def main():
    print("Section VI worked example: 3x3 conv, 1152x768, 48->32 ch, batch 2")
    print(f"  counted {paper_conv_example_flops()/1e9:.1f} GFLOPs "
          f"(paper: {paper_value('sec6.conv_example')})\n")

    rows = []
    for r in network_flop_table():
        paper = paper_value(f"fig2.flops.{r.name}")
        rows.append([r.name, f"{r.tf_per_sample:.3f}", paper,
                     f"{r.tf_per_sample / paper:.2f}", f"{r.parameters/1e6:.1f}M",
                     r.kernel_count])
    print(format_table(
        ["network", "TF/sample", "paper", "ratio", "params", "kernels"],
        rows, title="Figure 2 operation counts (traced at 1152x768)"))

    print()
    rows = []
    for p in figure2_table():
        rows.append([p.network, p.gpu, p.precision,
                     f"{p.samples_per_second:.2f}", f"{p.sustained_tf:.1f}",
                     f"{p.pct_peak:.1f}%"])
    print(format_table(
        ["network", "gpu", "precision", "samples/s", "TF/s", "% peak"],
        rows, title="Figure 2 modeled training rates"))

    for net in ("tiramisu", "deeplabv3+"):
        for prec in ("fp32", "fp16"):
            table = kernel_breakdown(net, prec)
            fig = 8 if net == "tiramisu" else 9
            paper_ms = paper_value(f"fig{fig}.step_ms.{net}.{prec}")
            print(f"\n{net} {prec}: modeled step "
                  f"{table.total_time_s*1e3:.0f} ms (paper {paper_ms} ms); "
                  f"dominant category: {table.dominant_category()}")


if __name__ == "__main__":
    main()
