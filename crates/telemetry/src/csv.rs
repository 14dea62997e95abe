//! CSV time-series export of the sampled points.
//!
//! One row per (series, tick): `t_secs,cell,provider,metric,labels,value`.
//! Rows are globally sorted by (cell, provider, metric, labels, time), so
//! the bytes are independent of chunk merge order and worker count.

use crate::fmt::{fmt_secs, fmt_value};
use crate::registry::SeriesKey;
use crate::sink::MetricsSink;

/// One output row: (cell sort key, provider, metric, labels, time, value).
type Row<'a> = ((bool, u64), &'a str, &'a str, &'a str, u64, f64);

/// Renders every sampled point as RFC-4180 CSV.
pub fn csv_timeseries(sink: &MetricsSink) -> String {
    // Series keys resolve through each chunk's id table, so the label
    // field of a series is joined once, not once per point.
    let mut rows: Vec<Row> = Vec::with_capacity(sink.point_count());
    let label_fields: Vec<Vec<String>> = sink
        .chunks()
        .iter()
        .map(|chunk| chunk.series.iter().map(label_field).collect())
        .collect();
    for (chunk, labels) in sink.chunks().iter().zip(&label_fields) {
        let cell = (chunk.cell.is_some(), chunk.cell.unwrap_or(0));
        for p in &chunk.points {
            rows.push((
                cell,
                chunk.provider.as_str(),
                chunk.series_key(p).name.as_str(),
                labels[p.series.index()].as_str(),
                chunk.instant(p).as_nanos(),
                p.value,
            ));
        }
    }
    rows.sort_by(|a, b| (&a.0, a.1, a.2, a.3, a.4).cmp(&(&b.0, b.1, b.2, b.3, b.4)));

    let mut out = String::from("t_secs,cell,provider,metric,labels,value\n");
    for ((has_cell, cell), provider, metric, labels, at_ns, value) in rows {
        let cell = if has_cell {
            cell.to_string()
        } else {
            String::new()
        };
        let t = fmt_secs(sebs_sim::SimTime::from_nanos(at_ns));
        let v = fmt_value(value);
        let fields = [t.as_str(), &cell, provider, metric, labels, &v];
        out.push_str(&fields.map(escape).join(","));
        out.push('\n');
    }
    out
}

/// The `k=v;k=v` label field of one series.
fn label_field(key: &SeriesKey) -> String {
    let labels: Vec<String> = key.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    labels.join(";")
}

/// RFC-4180 field escaping: quote when the field contains a comma, quote
/// or newline; double embedded quotes.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::MetricsHub;
    use sebs_sim::{SimDuration, SimTime};

    #[test]
    fn rows_are_sorted_series_major_time_minor() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(10));
        hub.gauge_set("warm", &[("pool", "fn:0")], 4.0);
        hub.gauge_set("active", &[("pool", "fn:0")], 1.0);
        hub.sample_at(SimTime::from_secs(10));
        hub.gauge_set("warm", &[("pool", "fn:0")], 2.0);
        hub.sample_at(SimTime::from_secs(20));
        let mut sink = MetricsSink::new();
        sink.push(hub.into_chunk("aws"));

        let csv = csv_timeseries(&sink);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_secs,cell,provider,metric,labels,value");
        assert_eq!(lines[1], "10,,aws,active,pool=fn:0,1");
        assert_eq!(lines[2], "20,,aws,active,pool=fn:0,1");
        assert_eq!(lines[3], "10,,aws,warm,pool=fn:0,4");
        assert_eq!(lines[4], "20,,aws,warm,pool=fn:0,2");
    }

    #[test]
    fn merge_order_does_not_change_bytes() {
        let mk = |cell: u64| {
            let mut hub = MetricsHub::new(SimDuration::from_secs(1));
            hub.gauge_set("g", &[], cell as f64);
            hub.sample_at(SimTime::from_secs(1));
            let mut chunk = hub.into_chunk("aws");
            chunk.cell = Some(cell);
            chunk
        };
        let mut a = MetricsSink::new();
        a.push(mk(1));
        a.push(mk(0));
        let mut b = MetricsSink::new();
        b.push(mk(0));
        b.push(mk(1));
        assert_eq!(csv_timeseries(&a), csv_timeseries(&b));
        assert!(csv_timeseries(&a).contains("1,0,aws,g,,0\n"));
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let mut hub = MetricsHub::new(SimDuration::from_secs(1));
        hub.gauge_set("g", &[("k", "a,b")], 1.0);
        hub.sample_at(SimTime::from_secs(1));
        let mut sink = MetricsSink::new();
        sink.push(hub.into_chunk("aws"));
        assert!(csv_timeseries(&sink).contains("\"k=a,b\""));
    }
}
