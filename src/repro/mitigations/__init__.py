"""Mitigations: the paper's Section 9 defense arm, as composable policies.

Three enforcement families, one spec object:

* **Access control** (paper Section 9.2) — RBAC / SELinux ioctl
  whitelisting and local-only counter visibility, enforced at the KGSL
  device file;
* **Obfuscation** (:mod:`~repro.mitigations.obfuscation`, Section 9.3) —
  driver-level value perturbation and OS-injected noise workloads;
* **Popup rendering changes** (:mod:`~repro.mitigations.popup_disable`,
  Section 9.1) — victim-side keyboard configuration changes.

:mod:`~repro.mitigations.policy` composes all of them into the frozen,
name-registered :class:`MitigationPolicy` spec that
``AttackConfig(mitigation=...)`` threads through the whole pipeline; its
KGSL-boundary layers run as one :class:`PolicyEnforcer` interposer.  See
``docs/defenses.md`` for the handbook and the threat × mitigation matrix.
"""
