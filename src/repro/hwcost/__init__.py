"""Analytical FPGA-cost model for PARD control planes (Fig. 12, §7.2)."""
