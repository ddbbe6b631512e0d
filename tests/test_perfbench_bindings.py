"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps package
functions by the names listed in ``perfbench/layers.py``. A package change
that drops or renames one of them makes every traced run fail at install;
this test makes it fail the unit suite instead. It reads ``perfbench/`` and
changes nothing there.
"""

import os

from prosody_codec import analysis, autodiff, corpus, dsp, metrics, model, quantizer, training

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
MODULES = dict(
    analysis=analysis, autodiff=autodiff, corpus=corpus, dsp=dsp, metrics=metrics,
    model=model, quantizer=quantizer, training=training,
)


def _bindings():
    owners = [*MODULES.values(), model.CodecModel]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_traced_bindings_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers  # perfbench/layers.py; it imports perfbench/tracer.py

    before = _bindings()
    tracer = layers.build_tracer(MODULES)
    try:
        tracer.install()  # a binding missing from the package raises here
        changed = [name for owner, names in before for name, value in names.items()
                   if vars(owner)[name] is not value]
        assert changed
    finally:  # restores whatever was installed, also after a failed install
        tracer.uninstall()
    for owner, names in before:
        for name, value in names.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"
