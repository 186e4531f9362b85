"""Reproduction of "Eavesdropping User Credentials via GPU Side Channels
on Smartphones" (ASPLOS 2022).

The package simulates the full hardware/software stack the paper attacks —
Qualcomm Adreno tiled rendering with performance counters, the KGSL
device-file interface, Android UI scenes and keyboards — and implements
the attack itself: offline model training, online Algorithm 1 inference,
app-switch detection and correction tracking.

The stable, supported surface is :mod:`repro.api` — facade functions
plus a typed :class:`~repro.api.AttackConfig`.  Quickstart:

>>> from repro.api import AttackConfig, app, attack, default_config, simulate, train
>>> config = default_config()
>>> chase = app("chase")
>>> cfg = AttackConfig(recognize_device=False)
>>> store = train([(config, chase)], config=cfg)
>>> trace = simulate(config, chase, "hunter2secret", seed=1)
>>> result = attack(store, trace, config=cfg)
>>> print(result.text)
hunter2secret

Keyboards, apps, phones and full attack scenarios are addressed by name
through registries (see :mod:`repro.scenarios` and docs/scenarios.md):

>>> from repro.api import AttackConfig, scenario, scenario_names
>>> {"gboard-chase", "pinpad"} <= set(scenario_names())
True
>>> scenario("pinpad").keyboard
'pinpad'
>>> AttackConfig(scenario="pinpad").scenario
'pinpad'

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table and figure.
"""

__version__ = "1.0.0"
