"""Run-time configurable multi-standard packet detector golden model.

Pipeline stages: sliding-window energy gate -> optional delay-and-correlate
coarse stage -> sign-quantized fine cross-correlators (one per standard) ->
arbitration.  A Monte-Carlo harness estimates detection probability over
SNR sweeps.
"""
