"""Names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
self-test checks that the two agree.
"""

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may get worse before a change counts as a regression.
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.2),
    ("item_us.p50", "us", "lower", 0.2),
    ("item_us.p99", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "share", "higher", 0.01),
)

# Per item unless the name says otherwise; times in microseconds.  Lower is
# better for all of them.
PER_LAYER = (
    ("protocol.validate_shape.calls", "count"),
    ("protocol.validate_shape.self_us", "us"),
    ("protocol.roles_of.calls", "count"),
    ("types.type_global.calls", "count"),
    ("types.type_global.self_us", "us"),
    ("types.type_global.errors", "count"),
    ("types.type_global.accepted_us", "us"),
    ("types.type_global.rejected_us", "us"),
    ("types.subtype.calls", "count"),
    ("types.subtype.self_us", "us"),
    ("chanvec.eval_global.calls", "count"),
    ("chanvec.eval_global.self_us", "us"),
    ("chanvec.unfold_cv.calls", "count"),
    ("chanvec.unfold_cv.self_us", "us"),
    ("chanvec.typecheck_cv.calls", "count"),
    ("chanvec.typecheck_cv.self_us", "us"),
    ("chanvec.ChannelTable.find.calls", "count"),
    ("runtime.open_session.calls", "count"),
    ("runtime.open_session.self_us", "us"),
    ("runtime.Endpoint.send.calls", "count"),
    ("runtime.Endpoint.send.self_us", "us"),
    ("runtime.Endpoint.send.errors", "count"),
    ("runtime.Endpoint.receive.calls", "count"),
    ("runtime.Endpoint.receive.self_us", "us"),
    ("runtime.Endpoint.receive.errors", "count"),
    ("runtime.Endpoint.close.calls", "count"),
    ("runtime.LinearityCell.use.calls", "count"),
    ("runtime.SessionChannels.channel_for.calls", "count"),
    ("runtime.SessionMonitor.record.calls", "count"),
    ("runtime.SessionMonitor.record.self_us", "us"),
    ("runtime.SessionMonitor.verdict.calls", "count"),
    ("runtime.SessionMonitor.verdict.self_us", "us"),
    ("runtime.overhead_ratio", "ratio"),
    ("transport.Channel.send.calls", "count"),
    ("transport.Channel.send.self_us", "us"),
    ("transport.Channel.send.wait_us", "us"),
    ("transport.select.calls", "count"),
    ("transport.select.self_us", "us"),
    ("transport.select.wait_us", "us"),
    ("transport.Channel.new.calls", "count"),
    ("transport.bare.item_us.p50", "us"),
    ("trace.overhead", "ratio"),
)

