"""Values the correctness gate compares against.

The eigenvalues and error norms were recorded from the seed commit of the
lab (ARPACK start-vector seed 0, one BLAS thread); ARPACK start vectors from
other seeds reproduce the eigenvalues to about 1e-12 relative.  The paper's
first eigenfrequencies are its table 1, six digits.
"""

# wg-square-eig: level n -> the 4 smallest eigenvalues gamma
WG_SQUARE_GAMMAS = {
    16: [17.088191656313636, 28.68236482278053, 28.753530251941886, 40.14380286524209],
    32: [17.420428245305903, 29.954015456985545, 29.975082852958465, 42.0651915254334],
    64: [17.511569525653545, 30.31371981687187, 30.319487923516338, 42.61590100014885],
}

# cr-mixed-eig: level n -> the 4 smallest eigenvalues gamma
CR_MIXED_GAMMAS = {
    32: [0.4839812895622571, 3.3539247193708683, 3.459863322237913, 8.535054205063249],
    64: [0.48695441472820644, 3.3658380253427365, 3.461925514997456, 8.554508002899597],
    128: [0.4882811672171901, 3.3711047436057333, 3.4624444670190724, 8.56327186948327],
}

# wg-source: (k, n) -> (energy norm, L2 norm) of Q_h u - u_h
SOURCE_NORMS = {
    (1, 16): (0.4257141705439554, 0.015988459249409125),
    (1, 32): (0.2184112780522313, 0.004127056618381224),
    (1, 64): (0.11307984714390315, 0.0010652784428853868),
    (1, 128): (0.05868046313575831, 0.00027497527299769856),
    (2, 8): (0.16540654412543201, 0.004029252676801926),
    (2, 16): (0.04278413101549804, 0.0005254582906831461),
    (2, 32): (0.011095930626038843, 6.82803985835339e-05),
    (2, 64): (0.002879019119467084, 8.853975328929762e-06),
}

# paper table 1: first eigenfrequency omega_1 of WG k=1 on the clamped square
PAPER_OMEGA1 = {16: 4.133787, 32: 4.173779, 64: 4.184683}
